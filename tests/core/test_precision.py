"""Tests for the global dtype/memory policy and the float32 compute paths."""

import importlib.util

import numpy as np
import pytest

from repro.core import precision
from repro.core.kmeans import kmeans
from repro.core.masked_kmeans import masked_kmeans
from repro.core.pruning import nm_prune_mask


@pytest.fixture(autouse=True)
def _restore_policy():
    dtype = precision.compute_dtype()
    block = precision.distance_block_bytes()
    yield
    precision.set_compute_dtype(dtype)
    precision.set_distance_block_bytes(block)


class TestPolicy:
    def test_default_is_float64(self):
        assert precision.compute_dtype() == np.float64
        assert precision.accum_dtype() == np.float64

    def test_set_and_restore(self):
        previous = precision.set_compute_dtype("float32")
        assert previous == np.float64
        assert precision.compute_dtype() == np.float32

    def test_context_manager_restores_on_exit_and_error(self):
        with precision.precision("float32", block_bytes=1 << 16):
            assert precision.compute_dtype() == np.float32
            assert precision.distance_block_bytes() == 1 << 16
        assert precision.compute_dtype() == np.float64
        with pytest.raises(RuntimeError):
            with precision.precision("float32"):
                raise RuntimeError("boom")
        assert precision.compute_dtype() == np.float64

    def test_failed_context_entry_restores_applied_knobs(self):
        """A valid dtype followed by an invalid block budget must not leak
        the half-applied policy."""
        with pytest.raises(ValueError):
            with precision.precision("float32", block_bytes=0):
                pass  # pragma: no cover - never reached
        assert precision.compute_dtype() == np.float64

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            precision.set_compute_dtype("float16")
        with pytest.raises(ValueError):
            precision.set_compute_dtype("int32")
        with pytest.raises(ValueError):
            precision.set_distance_block_bytes(0)

    def test_block_rows(self):
        # (rows, 256) float64 blocks within 1 MiB -> 512 rows
        assert precision.block_rows(256, 8, 1 << 20) == 512
        assert precision.block_rows(10**9, 8, 1 << 20) == 1  # never zero


def fresh_precision(monkeypatch, env):
    """A fresh copy of the precision module, imported under ``env``."""
    monkeypatch.delenv("REPRO_DISTANCE_BLOCK_BYTES", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    spec = importlib.util.spec_from_file_location("fresh_precision",
                                                  precision.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDistanceBlockBudget:
    @pytest.mark.parametrize("env, budget, source", [
        ({}, 1 << 20, "default"),
        ({"REPRO_DISTANCE_BLOCK_BYTES": str(4 << 20)}, 4 << 20, "env"),
        ({"REPRO_DISTANCE_BLOCK_BYTES": "1024"}, 1 << 16, "env"),  # floor
    ])
    def test_import_time_budget(self, monkeypatch, env, budget, source):
        fresh = fresh_precision(monkeypatch, env)
        assert fresh.distance_block_bytes() == budget
        assert fresh.distance_block_source() == source

    def test_override_is_reported_until_restored(self):
        source = precision.distance_block_source()
        assert source in ("default", "env")
        with precision.precision(
                block_bytes=precision.distance_block_bytes() + 1):
            assert precision.distance_block_source() == "override"
        assert precision.distance_block_source() == source


class TestFloat32Clustering:
    def test_kmeans_float32_dtype_and_quality(self, rng):
        data = rng.normal(size=(500, 8))
        ref = kmeans(data, 16, seed=0)
        with precision.precision("float32"):
            r32 = kmeans(data, 16, seed=0)
        assert r32.codewords.dtype == np.float32
        assert np.isclose(r32.sse, ref.sse, rtol=0.05)

    def test_masked_kmeans_float32_dtype_and_quality(self, rng):
        data = rng.normal(size=(500, 8))
        mask = nm_prune_mask(data, 2, 8)
        ref = masked_kmeans(data * mask, mask, 16, seed=0)
        with precision.precision("float32"):
            r32 = masked_kmeans(data * mask, mask, 16, seed=0)
        assert r32.codewords.dtype == np.float32
        assert np.isclose(r32.sse, ref.sse, rtol=0.05)

    def test_sse_accumulates_in_float64(self, rng):
        with precision.precision("float32"):
            result = masked_kmeans(rng.normal(size=(64, 8)),
                                   np.ones((64, 8), dtype=bool), 4, seed=0)
        assert isinstance(result.sse, float)
        assert np.isfinite(result.sse)

    def test_chunked_matches_unchunked_under_float32(self, rng):
        data = rng.normal(size=(300, 8))
        mask = nm_prune_mask(data, 2, 8)
        with precision.precision("float32"):
            a = masked_kmeans(data * mask, mask, 8, seed=0)
            b = masked_kmeans(data * mask, mask, 8, seed=0, block_bytes=2048)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.codewords, b.codewords)


class TestFloat32Network:
    def _train_steps(self, steps=3):
        from repro.nn import Conv2d, CrossEntropyLoss, Flatten, Linear, ReLU, SGD, Sequential

        rng = np.random.default_rng(0)
        model = Sequential(
            Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(1)),
            ReLU(),
            Flatten(),
            Linear(8 * 8 * 8, 5, rng=np.random.default_rng(2)),
        )
        loss_fn = CrossEntropyLoss()
        opt = SGD(model.parameters(), lr=0.05)
        x = rng.normal(size=(16, 3, 8, 8))
        y = rng.integers(0, 5, size=16)
        losses = []
        for _ in range(steps):
            opt.zero_grad()
            out = model(x)
            losses.append(loss_fn(out, y))
            model.backward(loss_fn.backward())
            opt.step()
        return model, out, losses

    def test_forward_backward_runs_in_float32(self):
        with precision.precision("float32"):
            model, out, losses = self._train_steps()
        assert out.dtype == np.float32
        for p in model.parameters():
            assert p.value.dtype == np.float32
            assert p.grad.dtype == np.float32
        assert all(np.isfinite(l) for l in losses)
        assert losses[-1] < losses[0]

    def test_float32_training_tracks_float64(self):
        _, _, ref = self._train_steps()
        with precision.precision("float32"):
            _, _, l32 = self._train_steps()
        assert np.allclose(ref, l32, rtol=1e-3, atol=1e-4)

    def test_batchnorm_statistics_stay_float64(self):
        from repro.nn import BatchNorm2d

        with precision.precision("float32"):
            bn = BatchNorm2d(4)
            bn.train()
            x = np.random.default_rng(0).normal(size=(8, 4, 6, 6)).astype(np.float32)
            out = bn.forward(x)
            bn.backward(np.ones_like(out))
        assert out.dtype == np.float32
        assert bn.running_mean.dtype == np.float64
        assert bn.running_var.dtype == np.float64


class TestFloat32Compression:
    def test_compressor_under_float32_policy(self, trained_model):
        from repro.core import LayerCompressionConfig, MVQCompressor

        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=15)
        ref = MVQCompressor(cfg).compress(trained_model)
        with precision.precision("float32"):
            c32 = MVQCompressor(cfg).compress(trained_model)
        assert set(ref.layers) == set(c32.layers)
        # float32 clustering reaches essentially the same quality
        assert c32.mask_sse() <= ref.mask_sse() * 1.1 + 1e-6
        recon = next(iter(c32)).reconstruct_weight()
        assert np.isfinite(recon).all()