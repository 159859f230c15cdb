"""Integer/LUT path of the codebook-domain engine.

The two mode aliases must run (and report) their target code, any other
mode must be rejected wherever it enters, and the narrow-width assignment
state that feeds the tables must survive sharing/adoption.  LUT
equivalence with the dense reconstruction lives in ``test_compressed.py``.
"""

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.core.codebook import assignment_dtype
from repro.core.grouping import GroupingStrategy
from repro.core.precision import precision
from repro.nn import Conv2d, Sequential
from repro.nn.compressed import MODES, compress_module
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import Pipeline
from repro.serve.cli import build_parser

#: (strategy, d, n_keep, m) combinations valid for a 16x32x3x3 convolution
STRATEGY_CONFIGS = [
    (GroupingStrategy.OUTPUT, 8, 2, 8),
    (GroupingStrategy.INPUT, 8, 2, 8),
    (GroupingStrategy.KERNEL, 9, 1, 3),
]


def _compressed_state(strategy, d, n_keep, m, store_mask, k=12):
    """One compressed conv layer and its core ``CompressedLayer`` state."""
    model = Sequential(Conv2d(16, 32, 3, padding=1,
                              rng=np.random.default_rng(1)))
    cfg = LayerCompressionConfig(
        k=k, d=d, n_keep=n_keep, m=m, strategy=strategy,
        max_kmeans_iterations=8, store_mask=store_mask,
        prune=store_mask, use_masked_kmeans=store_mask)
    return model.layers[0], next(iter(MVQCompressor(cfg).compress(model)))


def _compressed_conv(strategy, d, n_keep, m, store_mask, mode="lut", k=12):
    return compress_module(*_compressed_state(strategy, d, n_keep, m,
                                              store_mask, k), mode=mode)


class TestLutRouting:
    @pytest.mark.parametrize("alias,target", [("centroid", "lut"),
                                              ("auto", "dense")])
    @pytest.mark.parametrize("via", ["constructor", "attribute"])
    @pytest.mark.parametrize("strategy,d,n_keep,m", STRATEGY_CONFIGS,
                             ids=[s.value for s, *_ in STRATEGY_CONFIGS])
    def test_mode_alias_runs_its_target(self, alias, target, via, strategy,
                                        d, n_keep, m, rng):
        """``"auto"`` spells ``"dense"``; older manifests, scenarios and
        command lines spell the LUT path ``"centroid"``.  Either runs its
        target's code and reports the target."""
        layer, state = _compressed_state(strategy, d, n_keep, m, True)
        reference = compress_module(layer, state, mode=target)
        other = "lut" if target == "dense" else "dense"
        module = compress_module(
            layer, state, mode=alias if via == "constructor" else other)
        if via == "attribute":
            module.engine.mode = alias
        assert module.engine.mode == target
        x = rng.normal(size=(2, 16, 6, 6))
        out = module.forward(x)
        np.testing.assert_array_equal(out, reference.forward(x))
        assert module.engine.last_mode == target
        grad = rng.normal(size=out.shape)
        np.testing.assert_array_equal(module.backward(grad),
                                      reference.backward(grad))
        assert module.engine.serving_stats()["last_mode"] == target

    @pytest.mark.parametrize("via", ["constructor", "attribute"])
    def test_invalid_mode_rejected(self, via):
        layer, state = _compressed_state(GroupingStrategy.INPUT, 8, 2, 8, True)
        if via == "constructor":
            with pytest.raises(ValueError):
                compress_module(layer, state, mode="fastest")
            return
        engine = compress_module(layer, state, mode="lut").engine
        with pytest.raises(ValueError):
            engine.mode = "fastest"
        assert engine.mode == "lut"

    @pytest.mark.parametrize("entry", ["constructor", "attribute", "scenario",
                                       "cli"])
    def test_lut_quant_is_rejected(self, entry, capsys):
        """The removed approximate mode fails loudly wherever a mode enters
        instead of silently running another path."""
        assert "lut_quant" not in MODES
        if entry == "cli":
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(["--scenario", "serving-resnet18",
                                           "--engine-mode", "lut_quant"])
            assert exit_info.value.code == 2
            assert "invalid choice: 'lut_quant'" in capsys.readouterr().err
            return
        if entry == "scenario":
            config = PipelineConfig.from_dict({
                "base": {"k": 6, "max_kmeans_iterations": 2},
                "stages": ["group", "prune", "cluster", "quantize",
                           "serve_eval"],
                "serve": {"mode": "lut_quant", "batch_size": 2,
                          "num_samples": 2, "input_shape": [16, 5, 5]}})
            model = Sequential(Conv2d(16, 32, 3, padding=1,
                                      rng=np.random.default_rng(1)))
            with pytest.raises(ValueError, match="lut_quant"):
                Pipeline(config).run(model)
            return
        layer, state = _compressed_state(GroupingStrategy.OUTPUT, 8, 2, 8,
                                         True)
        if entry == "constructor":
            with pytest.raises(ValueError, match="lut_quant"):
                compress_module(layer, state, mode="lut_quant")
            return
        engine = compress_module(layer, state, mode="lut").engine
        with pytest.raises(ValueError, match="lut_quant"):
            engine.mode = "lut_quant"
        assert engine.mode == "lut"

    def test_lut_builds_routing_tables_once(self, rng):
        module = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True)
        x = rng.normal(size=(2, 16, 5, 5))
        module.forward(x)
        assert module.engine.lut_table_bytes() > 0
        flat = module.engine._lut["flat"]
        module.forward(x)
        assert module.engine._lut["flat"] is flat  # cached, not rebuilt


class TestLutBitsAcrossBudgets:
    """The distance block budget sizes the LUT cores' row chunks and
    routed-sum steps, so it may move float summation order."""

    BUDGETS = (1 << 20, 1 << 16, 1 << 12)

    def _outputs(self, strategy, d, n_keep, m, dtype):
        with precision(dtype):
            module = _compressed_conv(strategy, d, n_keep, m, True)
            x = np.random.default_rng(5).normal(
                size=(4, 16, 8, 8)).astype(dtype)
            outputs = []
            for budget in self.BUDGETS:
                with precision(block_bytes=budget):
                    outputs.append(module.forward(x))
        return outputs

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("strategy,d,n_keep,m", STRATEGY_CONFIGS,
                             ids=[s.value for s, *_ in STRATEGY_CONFIGS])
    def test_lut_forward_across_budgets(self, strategy, d, n_keep, m, dtype):
        reference, *others = self._outputs(strategy, d, n_keep, m, dtype)
        gather_f64 = (dtype == "float64"
                      and strategy is not GroupingStrategy.OUTPUT)
        for output in others:
            if gather_f64:
                # float64 GEMMs over a different number of rows, and a
                # different number of routed-sum steps, round differently
                np.testing.assert_allclose(output, reference, rtol=1e-12,
                                           atol=1e-12 * np.abs(
                                               reference).max())
            else:
                np.testing.assert_array_equal(output, reference)


class TestNarrowAssignments:
    def test_assignment_dtype_boundaries(self):
        assert assignment_dtype(2) == np.uint8
        assert assignment_dtype(256) == np.uint8
        assert assignment_dtype(257) == np.uint16
        assert assignment_dtype(2 ** 16) == np.uint16
        assert assignment_dtype(2 ** 16 + 1) == np.int64

    def test_engine_downcasts_assignments(self):
        engine = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                                  k=12).engine
        assert engine.assignments.dtype == np.uint8

    def test_caches_keyed_by_assignment_width(self, rng):
        module = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                                  mode="dense")
        module.forward(rng.normal(size=(1, 16, 5, 5)))
        assert all(key.endswith("/uint8")
                   for key in module.engine._dense_cache)

    def test_serving_stats_surface_lut_state(self, rng):
        module = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                                  mode="lut")
        module.forward(rng.normal(size=(1, 16, 5, 5)))
        stats = module.engine.serving_stats()
        assert stats["last_mode"] == "lut"
        assert stats["assignments_dtype"] == "uint8"
        assert stats["lut_table_bytes"] > 0


class TestSharingAndAdoption:
    def test_share_tables_shares_assignments_and_lut(self, rng):
        a = _compressed_conv(GroupingStrategy.INPUT, 8, 2, 8, True,
                             mode="lut")
        b = _compressed_conv(GroupingStrategy.INPUT, 8, 2, 8, True,
                             mode="lut")
        x = rng.normal(size=(2, 16, 6, 6))
        ref = a.forward(x)
        b.engine.share_tables_with(a.engine)
        assert b.engine.assignments is a.engine.assignments
        assert b.engine._lut is a.engine._lut
        np.testing.assert_array_equal(b.forward(x), ref)

    def test_adopt_derived_roundtrip(self, rng):
        a = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                             mode="lut")
        x = rng.normal(size=(2, 16, 6, 6))
        ref = a.forward(x)  # warms LUT + caches
        b = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                             mode="lut")
        b.engine.adopt_derived(a.engine.derived_arrays())
        assert b.engine._lut["flat"] is a.engine._lut["flat"]
        np.testing.assert_array_equal(b.forward(x), ref)
