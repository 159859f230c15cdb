"""Integer/LUT path of the codebook-domain engine.

The quantized-activation mode must stay inside a bounded relative error,
the cost model must price the LUT path against dense, ``"centroid"`` must
run (and report) the LUT code, and the narrow-width assignment state that
feeds the tables must survive sharing/adoption.  Exact-LUT equivalence with
the dense reconstruction lives in ``test_compressed.py``.
"""

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.core.codebook import assignment_dtype
from repro.core.grouping import GroupingStrategy
from repro.nn import Conv2d, Sequential
from repro.nn.compressed import (
    DEFAULT_ACT_LEVELS,
    InferenceCostModel,
    compress_module,
)
from repro.nn.models import resnet18_mini

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


def _rel_err(out, ref):
    return (float(np.linalg.norm(out - ref))
            / max(float(np.linalg.norm(ref)), 1e-12))


class TestLutRouting:
    @pytest.mark.parametrize("via", ["constructor", "attribute"])
    @pytest.mark.parametrize("strategy,d,n_keep,m", STRATEGY_CONFIGS,
                             ids=[s.value for s, *_ in STRATEGY_CONFIGS])
    def test_centroid_is_an_alias_of_lut(self, via, strategy, d, n_keep, m,
                                         rng):
        """Older manifests, scenarios and command lines spell the LUT path
        ``"centroid"``: it runs the LUT code and reports ``"lut"``."""
        layer, state = _compressed_state(strategy, d, n_keep, m, True)
        lut = compress_module(layer, state, mode="lut")
        alias = compress_module(
            layer, state, mode="centroid" if via == "constructor" else "dense")
        if via == "attribute":
            alias.engine.mode = "centroid"
        x = rng.normal(size=(2, 16, 6, 6))
        out = alias.forward(x)
        np.testing.assert_array_equal(out, lut.forward(x))
        assert alias.engine.last_mode == "lut"
        grad = rng.normal(size=out.shape)
        np.testing.assert_array_equal(alias.backward(grad), lut.backward(grad))
        assert alias.engine.serving_stats()["last_mode"] == "lut"

    def test_lut_builds_routing_tables_once(self, rng):
        module = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True)
        x = rng.normal(size=(2, 16, 5, 5))
        module.forward(x)
        assert module.engine.lut_table_bytes() > 0
        flat = module.engine._lut["flat"]
        module.forward(x)
        assert module.engine._lut["flat"] is flat  # cached, not rebuilt


class TestQuantMode:
    def test_rel_err_bounded_on_model_zoo(self, rng):
        model = resnet18_mini(num_classes=5, seed=3)
        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=6)
        MVQCompressor(cfg).export_compressed_model(model)
        model.eval()
        engines = [m.engine for _, m in model.named_modules()
                   if getattr(m, "engine", None) is not None]
        assert engines
        x = rng.normal(size=(4, 3, 16, 16))
        for engine in engines:
            engine.mode = "lut"
        ref = model.forward(x)
        for engine in engines:
            engine.mode = "lut_quant"
        out = model.forward(x)
        assert 0.0 < _rel_err(out, ref) < 0.05
        assert all(engine.last_mode == "lut_quant" for engine in engines)

    def test_finer_alphabet_shrinks_error(self, rng):
        module = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True)
        x = rng.normal(size=(2, 16, 6, 6))
        module.engine.mode = "lut"
        ref = module.forward(x)
        module.engine.mode = "lut_quant"
        errors = []
        for levels in (15, DEFAULT_ACT_LEVELS, 4095):
            module.engine.act_levels = levels
            errors.append(_rel_err(module.forward(x), ref))
        assert errors[0] > errors[1] > errors[2]

    def test_quant_backward_runs(self, rng):
        module = _compressed_conv(GroupingStrategy.INPUT, 8, 2, 8, True,
                                  mode="lut_quant")
        x = rng.normal(size=(2, 16, 6, 6))
        out = module.forward(x)
        grad_in = module.backward(rng.normal(size=out.shape))
        assert grad_in.shape == x.shape
        assert np.all(np.isfinite(grad_in))


class TestCostModelLut:
    def test_fast_lut_rates_select_lut(self):
        # small table (high reuse) + fast routing: lut beats the dense GEMM
        fast = InferenceCostModel(lut_gather_elems_per_s=1e15,
                                  lut_scatter_elems_per_s=1e15)
        assert fast.select(1, 512, 512, 8, 8, gather_form=True) == "lut"

    def test_slow_lut_rates_never_select_lut(self):
        slow = InferenceCostModel(lut_gather_elems_per_s=1.0,
                                  lut_scatter_elems_per_s=1.0)
        for u in (1, 64, 2048):
            assert slow.select(8, 512, 256, 8, u,
                               gather_form=True) == "dense"

    def test_auto_resolves_to_concrete_mode(self):
        engine = _compressed_conv(GroupingStrategy.INPUT, 8, 2, 8, True,
                                  mode="auto").engine
        # free table GEMM + free LUT routing: the LUT path costs next to
        # nothing, the dense GEMM keeps its default rate
        engine.cost_model = InferenceCostModel(skinny_gemm_flops_per_s=1e15,
                                               copy_elems_per_s=1e15,
                                               lut_gather_elems_per_s=1e15,
                                               lut_scatter_elems_per_s=1e15)
        assert engine.choose_mode(batch=64, dtype=np.float64) == "lut"
        # auto never resolves to the approximate mode — that is opt-in only
        assert engine.choose_mode(batch=64, dtype=np.float64) != "lut_quant"

    def test_lut_seconds_prices_both_forms(self):
        model = InferenceCostModel()
        gather = model.lut_seconds(8, 512, 256, 8, 64, gather_form=True)
        scatter = model.lut_seconds(8, 512, 256, 8, 64, gather_form=False)
        assert gather > 0.0 and scatter > 0.0


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
        assert stats["act_levels"] == DEFAULT_ACT_LEVELS
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
