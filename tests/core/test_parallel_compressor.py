"""Parallel per-layer compression must be bit-identical to sequential."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor, cpu, precision
from repro.core import compressor as compressor_mod


def _assert_identical(a, b):
    assert list(a.layers) == list(b.layers)
    for name, la in a.layers.items():
        lb = b.layers[name]
        assert np.array_equal(la.assignments, lb.assignments)
        assert np.array_equal(la.codebook.codewords, lb.codebook.codewords)
        assert np.array_equal(la.mask, lb.mask)


class TestParallelCompression:
    def test_parallel_bit_identical_to_sequential(self, trained_model):
        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=15, seed=3)
        sequential = MVQCompressor(cfg).compress(trained_model)
        parallel = MVQCompressor(cfg, workers=4).compress(trained_model)
        _assert_identical(sequential, parallel)

    def test_parallel_repeatable(self, trained_model):
        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=15)
        a = MVQCompressor(cfg, workers=3).compress(trained_model)
        b = MVQCompressor(cfg, workers=3).compress(trained_model)
        _assert_identical(a, b)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            MVQCompressor(LayerCompressionConfig(), workers=0)

    def test_parallel_backend_option_is_gone(self):
        with pytest.raises(TypeError):
            MVQCompressor(LayerCompressionConfig(), parallel_backend="thread")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_thread_pool_equals_sequential(self, dtype, trained_model,
                                           monkeypatch):
        """The thread pool (forced past the single-CPU cap) matches the
        sequential result exactly, also under a scoped float32 policy:
        pool threads see the caller's policy."""
        monkeypatch.setattr(cpu, "available_cpus", lambda: 4)
        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=15, seed=3)
        with precision.precision(dtype):
            sequential = MVQCompressor(cfg).compress(trained_model)
            parallel = MVQCompressor(cfg, workers=4).compress(trained_model)
        _assert_identical(sequential, parallel)

    def test_pool_threads_see_the_scoped_policy(self, trained_model,
                                                monkeypatch):
        """Layer tasks run in pool threads under the caller's scoped dtype
        and block budget, and the pool leaves that policy as it found it."""
        seen = []
        task = compressor_mod._cluster_layer_task

        def spy(args):
            seen.append((threading.current_thread() is threading.main_thread(),
                         precision.compute_dtype(),
                         precision.distance_block_bytes()))
            return task(args)

        monkeypatch.setattr(cpu, "available_cpus", lambda: 4)
        monkeypatch.setattr(compressor_mod, "_cluster_layer_task", spy)
        outside = (precision.compute_dtype(), precision.distance_block_bytes())
        cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=3)
        with precision.precision("float32", block_bytes=1 << 17):
            MVQCompressor(cfg, workers=4).compress(trained_model)
            assert precision.compute_dtype() == np.float32
            assert precision.distance_block_bytes() == 1 << 17
        assert (precision.compute_dtype(),
                precision.distance_block_bytes()) == outside
        assert seen and not any(main for main, _, _ in seen)
        assert {(dtype, block) for _, dtype, block in seen} == {
            (np.dtype(np.float32), 1 << 17)}

    def test_pool_submits_largest_layer_first(self, trained_model,
                                              monkeypatch):
        """Largest-first scheduling; results still map to their layers."""
        submitted = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, task):
                submitted.append(task[0].shape[0])
                return super().submit(fn, task)

        monkeypatch.setattr(cpu, "available_cpus", lambda: 4)
        monkeypatch.setattr(compressor_mod, "ThreadPoolExecutor", Recording)
        compressor = MVQCompressor(
            LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=3),
            workers=2)
        targets = compressor.compressible_layers(trained_model)
        prepared = compressor.prepare_layers(targets)
        results = compressor.cluster_layerwise(targets, prepared)
        rows = [prepared[name][2].shape[0] for name, _ in targets]
        assert submitted == sorted(rows, reverse=True)
        assert list(results) == [name for name, _ in targets]
        for name, _ in targets:
            assert len(results[name].assignments) == prepared[name][2].shape[0]

    def test_pooled_subset_equals_full_sequential_run(self, trained_model,
                                                      monkeypatch):
        """Re-clustering a subset of layers on the pool (the artifact
        cache's path) reproduces those layers of a full sequential run."""
        monkeypatch.setattr(cpu, "available_cpus", lambda: 4)
        cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=5, seed=1)
        sequential = MVQCompressor(cfg)
        targets = sequential.compressible_layers(trained_model)
        prepared = sequential.prepare_layers(targets)
        full = sequential.cluster_layerwise(targets, prepared)
        subset = [name for name, _ in targets][1::2]
        pooled = MVQCompressor(cfg, workers=4).cluster_layerwise(
            targets, prepared, subset=subset)
        assert list(pooled) == subset
        for name in subset:
            assert np.array_equal(pooled[name].assignments,
                                  full[name].assignments)
            assert np.array_equal(pooled[name].codewords, full[name].codewords)

    def test_more_workers_than_layers_equals_sequential(self, trained_model,
                                                        monkeypatch):
        """Workers past the layer count are not requested; the bits hold."""
        monkeypatch.setattr(cpu, "available_cpus", lambda: 64)
        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=8, seed=5)
        compressor = MVQCompressor(cfg, workers=64)
        num_layers = len(compressor.compressible_layers(trained_model))
        assert compressor._effective_workers(num_layers) == num_layers
        sequential = MVQCompressor(cfg).compress(trained_model)
        _assert_identical(sequential, compressor.compress(trained_model))

    def test_layer_error_reaches_the_caller_and_frees_the_budget(
            self, trained_model, monkeypatch):
        task = compressor_mod._cluster_layer_task

        def failing(args):
            if args[0].shape[0] == 64:
                raise ValueError("layer failed")
            return task(args)

        monkeypatch.setattr(cpu, "available_cpus", lambda: 4)
        monkeypatch.setattr(compressor_mod, "_cluster_layer_task", failing)
        cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=3)
        with pytest.raises(ValueError, match="layer failed"):
            MVQCompressor(cfg, workers=4).compress(trained_model)
        with cpu.parallel(4) as granted:     # the pool's region was left
            assert granted == 4

    def test_workers_capped_by_available_cpus(self, monkeypatch):
        """On a single-CPU host, workers>1 degrades to the sequential path
        (break-even by construction, never a slowdown)."""
        compressor = MVQCompressor(LayerCompressionConfig(), workers=8)

        def granted(num_layers):
            with cpu.parallel(compressor._effective_workers(num_layers)) as n:
                return n

        monkeypatch.setattr(cpu, "available_cpus", lambda: 1)
        assert granted(10) == 1
        monkeypatch.setattr(cpu, "available_cpus", lambda: 16)
        assert granted(10) == 8
        assert granted(3) == 3

    def test_decorrelated_seeds_deterministic_and_parallel_safe(self, trained_model):
        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=15)
        a = MVQCompressor(cfg, decorrelate_seeds=True).compress(trained_model)
        b = MVQCompressor(cfg, decorrelate_seeds=True, workers=4).compress(trained_model)
        _assert_identical(a, b)

    def test_decorrelated_seeds_differ_across_layers(self):
        compressor = MVQCompressor(LayerCompressionConfig(seed=0),
                                   decorrelate_seeds=True)
        cfg = compressor.config
        seeds = {name: compressor._layer_seed(name, cfg)
                 for name in ("conv1", "conv2", "layer1.0.conv1")}
        assert len(set(seeds.values())) == len(seeds)
        assert compressor._layer_seed("conv1", cfg) == seeds["conv1"]
