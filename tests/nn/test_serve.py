"""Batched serving: output equivalence, buffer reuse, partial batches."""

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.nn import Conv2d, Sequential, predict_batched
from repro.nn.compressed import CompressedConv2d


def _compressed_stack():
    model = Sequential(
        Conv2d(4, 8, 3, padding=1, rng=np.random.default_rng(0)),
        Conv2d(8, 8, 3, padding=1, rng=np.random.default_rng(1)),
    )
    cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=5)
    MVQCompressor(cfg).export_compressed_model(model)
    return model


class TestPredictBatched:
    def test_matches_single_forward(self, rng):
        model = _compressed_stack()
        x = rng.normal(size=(10, 4, 6, 6))
        model.eval()
        expected = model.forward(x)
        # full batches and short tails alike run at their real size, on
        # batch-invariant kernels: the bits never depend on the batch size
        for batch_size in (1, 3, 4, 10, 32):
            out = predict_batched(model, x, batch_size=batch_size)
            np.testing.assert_array_equal(out, expected)

    def test_reuses_im2col_buffer_across_batches(self, rng):
        model = _compressed_stack()
        x = rng.normal(size=(12, 4, 6, 6))
        predict_batched(model, x, batch_size=4)
        first = model.layers[0]
        assert isinstance(first, CompressedConv2d)
        buffer = first._col_buffer
        predict_batched(model, x, batch_size=4)
        predict_batched(model, x[:3], batch_size=2)   # smaller batches
        assert first._col_buffer is buffer

    def test_partial_batch_uses_a_prefix_of_the_buffer(self, rng):
        model = _compressed_stack()
        x = rng.normal(size=(7, 4, 6, 6))
        out = predict_batched(model, x, batch_size=4)  # 4 + 3-row tail
        first = model.layers[0]
        # the buffer keeps the full batch's rows; the tail ran on a prefix
        rows = 6 * 6
        assert first._col_buffer.shape[0] == 4 * rows
        assert first._cache[0].shape[0] == 3 * rows
        assert np.shares_memory(first._cache[0], first._col_buffer)
        model.eval()
        np.testing.assert_array_equal(out, model.forward(x))
        # a larger batch grows the buffer once
        assert first._col_buffer.shape[0] == 7 * rows

    def test_restores_training_mode(self, rng):
        model = _compressed_stack()
        model.train(True)
        predict_batched(model, rng.normal(size=(2, 4, 6, 6)), batch_size=2)
        assert model.training

    def test_invalid_inputs(self, rng):
        model = _compressed_stack()
        with pytest.raises(ValueError):
            predict_batched(model, rng.normal(size=(2, 4, 6, 6)), batch_size=0)
        with pytest.raises(ValueError):
            predict_batched(model, np.zeros((0, 4, 6, 6)), batch_size=2)
