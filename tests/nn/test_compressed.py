"""Compressed-domain inference: equivalence with dense reconstruction across
grouping strategies, mask settings, dtype policies and execution modes."""

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor, precision
from repro.core.grouping import GroupingStrategy
from repro.core.reconstruct import effective_subvector_table, reconstruct_grouped
from repro.nn import Conv2d, Linear, Sequential, count_flops
from repro.nn.compressed import (
    CompressedConv2d,
    CompressedLinear,
    compress_module,
    swap_to_compressed,
)
from repro.nn.models import resnet18_mini

#: (strategy, d, n_keep, m) combinations valid for a 16x32x3x3 convolution
STRATEGY_CONFIGS = [
    (GroupingStrategy.OUTPUT, 8, 2, 8),
    (GroupingStrategy.INPUT, 8, 2, 8),
    (GroupingStrategy.KERNEL, 9, 1, 3),
]


def _compressed_conv_pair(strategy, d, n_keep, m, store_mask, mode,
                          k=12, iterations=8):
    """One compressed conv module plus a dense conv holding its decoded weight."""
    model = Sequential(Conv2d(16, 32, 3, padding=1, rng=np.random.default_rng(1)))
    cfg = LayerCompressionConfig(
        k=k, d=d, n_keep=n_keep, m=m, strategy=strategy,
        max_kmeans_iterations=iterations, store_mask=store_mask,
        prune=store_mask, use_masked_kmeans=store_mask)
    state = next(iter(MVQCompressor(cfg).compress(model)))
    layer = model.layers[0]
    reference = Conv2d(16, 32, 3, padding=1)
    reference.weight.copy_(state.reconstruct_weight())
    reference.bias.copy_(layer.bias.value)
    return compress_module(layer, state, mode=mode), reference


class TestForwardBackwardEquivalence:
    @pytest.mark.parametrize("strategy,d,n_keep,m", STRATEGY_CONFIGS,
                             ids=[s.value for s, *_ in STRATEGY_CONFIGS])
    @pytest.mark.parametrize("store_mask", [True, False], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("mode", ["dense", "lut", "auto"])
    @pytest.mark.parametrize("dtype,atol", [("float64", 1e-9), ("float32", 1e-4)])
    def test_conv_matches_dense_reconstruction(self, strategy, d, n_keep, m,
                                               store_mask, mode, dtype, atol,
                                               rng):
        with precision.precision(dtype):
            compressed, reference = _compressed_conv_pair(
                strategy, d, n_keep, m, store_mask, mode)
            x = rng.normal(size=(3, 16, 6, 6)).astype(dtype)
            out = compressed.forward(x)
            ref = reference.forward(x)
            assert out.dtype == np.dtype(dtype)
            np.testing.assert_allclose(out, ref, atol=atol)

            grad = rng.normal(size=out.shape).astype(dtype)
            np.testing.assert_allclose(compressed.backward(grad),
                                       reference.backward(grad), atol=atol)

    @pytest.mark.parametrize("strategy", [GroupingStrategy.OUTPUT,
                                          GroupingStrategy.INPUT])
    @pytest.mark.parametrize("mode", ["dense", "lut"])
    def test_linear_matches_dense_reconstruction(self, strategy, mode, rng):
        model = Sequential(Linear(32, 24, rng=np.random.default_rng(2)))
        cfg = LayerCompressionConfig(k=10, d=8, strategy=strategy,
                                     max_kmeans_iterations=8)
        state = next(iter(MVQCompressor(cfg, include_linear=True).compress(model)))
        layer = model.layers[0]
        reference = Linear(32, 24)
        reference.weight.copy_(state.reconstruct_weight())
        reference.bias.copy_(layer.bias.value)
        compressed = compress_module(layer, state, mode=mode)

        x = rng.normal(size=(5, 32))
        np.testing.assert_allclose(compressed.forward(x), reference.forward(x),
                                   atol=1e-9)
        grad = rng.normal(size=(5, 24))
        np.testing.assert_allclose(compressed.backward(grad),
                                   reference.backward(grad), atol=1e-9)

    @pytest.mark.parametrize("dtype,atol", [("float64", 1e-9), ("float32", 1e-4)])
    @pytest.mark.parametrize("mode", ["dense", "lut"])
    def test_precision_policy(self, dtype, atol, mode, rng):
        """Both paths follow the global compute-dtype policy."""
        with precision.precision(dtype):
            compressed, reference = _compressed_conv_pair(
                GroupingStrategy.OUTPUT, 8, 2, 8, True, mode)
            x = rng.normal(size=(2, 16, 5, 5))
            out = compressed.forward(x)
            assert out.dtype == np.dtype(dtype)
            np.testing.assert_allclose(out, reference.forward(x), atol=atol)

    def test_linear_higher_rank_input(self, rng):
        model = Sequential(Linear(16, 8, rng=np.random.default_rng(3)))
        cfg = LayerCompressionConfig(k=6, d=8, max_kmeans_iterations=5)
        state = next(iter(MVQCompressor(cfg, include_linear=True).compress(model)))
        compressed = compress_module(model.layers[0], state, mode="lut")
        x = rng.normal(size=(2, 3, 16))
        out = compressed.forward(x)
        assert out.shape == (2, 3, 8)
        grad = rng.normal(size=out.shape)
        assert compressed.backward(grad).shape == x.shape


class TestEffectiveTable:
    def test_table_reconstructs_grouped(self, rng):
        from repro.core.codebook import Codebook
        codebook = Codebook(rng.normal(size=(16, 8)))
        assignments = rng.integers(0, 16, size=200)
        mask = rng.random(size=(200, 8)) > 0.5
        table, index = effective_subvector_table(codebook, assignments, mask)
        np.testing.assert_array_equal(
            table[index], reconstruct_grouped(codebook, assignments, mask))
        assert table.shape[0] == len(np.unique(
            [f"{a}-{m.tobytes().hex()}" for a, m in zip(assignments, mask)]))

    def test_unmasked_table_is_codebook(self, rng):
        from repro.core.codebook import Codebook
        codebook = Codebook(rng.normal(size=(16, 8)))
        assignments = rng.integers(0, 16, size=50)
        table, index = effective_subvector_table(codebook, assignments, None)
        np.testing.assert_array_equal(table, codebook.effective_codewords())
        np.testing.assert_array_equal(index, assignments)

    def test_nm_mask_bounds_table_size(self, rng):
        """With N:M masks, U ≤ k x (number of distinct mask patterns)."""
        from repro.core.codebook import Codebook
        from repro.core.pruning import nm_prune_mask
        codebook = Codebook(rng.normal(size=(4, 8)))
        data = rng.normal(size=(500, 8))
        mask = nm_prune_mask(data, 2, 8)
        assignments = rng.integers(0, 4, size=500)
        table, _ = effective_subvector_table(codebook, assignments, mask)
        assert table.shape[0] <= 4 * 28  # C(8, 2) patterns per codeword


class TestExportCompressedModel:
    def test_export_swaps_and_matches_apply_to_model(self, trained_model, rng):
        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=10)
        reference = resnet18_mini(num_classes=5, seed=1)
        reference.load_state_dict(trained_model.state_dict())
        ref_compressed = MVQCompressor(cfg).compress(reference)
        ref_compressed.apply_to_model()

        compressed = MVQCompressor(cfg).export_compressed_model(trained_model)
        swapped = [m for _, m in trained_model.named_modules()
                   if isinstance(m, CompressedConv2d)]
        assert len(swapped) == len(compressed.layers)

        x = rng.normal(size=(4, 3, 16, 16))
        trained_model.eval()
        reference.eval()
        np.testing.assert_allclose(trained_model.forward(x),
                                   reference.forward(x), atol=1e-8)
        # compression accounting still works on the returned states
        assert compressed.compression_ratio() > 1.0

    def test_flops_counter_sees_compressed_modules(self, trained_model):
        cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=5)
        dense_flops = count_flops(trained_model, (3, 16, 16))
        MVQCompressor(cfg).export_compressed_model(trained_model)
        assert count_flops(trained_model, (3, 16, 16)) == dense_flops

    def test_swap_replaces_list_entries(self):
        model = Sequential(Conv2d(16, 32, 3, padding=1,
                                  rng=np.random.default_rng(0)))
        cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=5)
        compressed = MVQCompressor(cfg).compress(model)
        swapped = swap_to_compressed(model, compressed)
        assert isinstance(model.layers[0], CompressedConv2d)
        assert set(swapped) == set(compressed.layers)

    def test_depthwise_conv_rejected(self):
        layer = Conv2d(8, 8, 3, groups=8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            CompressedConv2d.from_layer(layer, state=None)

    def test_compress_module_type_check(self):
        from repro.nn.layers import ReLU
        with pytest.raises(TypeError):
            compress_module(ReLU(), state=None)


class TestCompressedLinearFromLayer:
    def test_from_layer_roundtrip(self, rng):
        model = Sequential(Linear(16, 8, rng=np.random.default_rng(5)))
        cfg = LayerCompressionConfig(k=6, d=8, max_kmeans_iterations=5)
        state = next(iter(MVQCompressor(cfg, include_linear=True).compress(model)))
        compressed = CompressedLinear.from_layer(model.layers[0], state)
        reference = Linear(16, 8)
        reference.weight.copy_(state.reconstruct_weight())
        reference.bias.copy_(model.layers[0].bias.value)
        x = rng.normal(size=(3, 16))
        np.testing.assert_allclose(compressed.forward(x),
                                   reference.forward(x), atol=1e-9)

    def test_backward_before_forward_raises(self, rng):
        model = Sequential(Linear(16, 8, rng=np.random.default_rng(5)))
        cfg = LayerCompressionConfig(k=6, d=8, max_kmeans_iterations=5)
        state = next(iter(MVQCompressor(cfg, include_linear=True).compress(model)))
        compressed = CompressedLinear.from_layer(model.layers[0], state)
        with pytest.raises(RuntimeError):
            compressed.backward(np.zeros((3, 8)))
