"""Parallel per-layer compression must be bit-identical to sequential."""

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

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            MVQCompressor(LayerCompressionConfig(), parallel_backend="greenlet")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_backends_bit_identical(self, backend, trained_model, monkeypatch):
        """Both pool implementations (forced past the single-CPU cap) match
        the sequential result exactly."""
        monkeypatch.setattr(cpu, "available_cpus", lambda: 4)
        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=15, seed=3)
        sequential = MVQCompressor(cfg).compress(trained_model)
        parallel = MVQCompressor(cfg, workers=4,
                                 parallel_backend=backend).compress(trained_model)
        _assert_identical(sequential, parallel)

    def test_process_backend_inherits_precision_scope(self, trained_model,
                                                      monkeypatch):
        """A scoped float32 policy must reach process-pool workers (child
        processes only see the environment defaults otherwise)."""
        monkeypatch.setattr(cpu, "available_cpus", lambda: 4)
        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=10, seed=1)
        with precision.precision("float32"):
            sequential = MVQCompressor(cfg).compress(trained_model)
            parallel = MVQCompressor(cfg, workers=4,
                                     parallel_backend="process").compress(trained_model)
        _assert_identical(sequential, parallel)

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

    def test_auto_backend_never_picks_process_under_spawn(self, monkeypatch):
        """Spawned workers re-import __main__, so auto must stay on threads
        when fork is not the start method (explicit 'process' still works)."""
        monkeypatch.setattr(compressor_mod.multiprocessing, "get_start_method",
                            lambda allow_none=False: "spawn")
        big = [(np.zeros((500_000, 8)), np.ones((500_000, 8), bool),
                LayerCompressionConfig(max_kmeans_iterations=10), 0, "float64", 1)]
        compressor = MVQCompressor(LayerCompressionConfig(), workers=4)
        assert compressor._choose_backend(big) == "thread"
        forced = MVQCompressor(LayerCompressionConfig(), workers=4,
                               parallel_backend="process")
        assert forced._choose_backend(big) == "process"

    def test_auto_backend_scales_with_work(self):
        small = [(np.zeros((100, 8)), np.ones((100, 8), bool),
                  LayerCompressionConfig(max_kmeans_iterations=10), 0, "float64", 1)]
        big = [(np.zeros((500_000, 8)), np.ones((500_000, 8), bool),
                LayerCompressionConfig(max_kmeans_iterations=10), 0, "float64", 1)]
        compressor = MVQCompressor(LayerCompressionConfig(), workers=4)
        assert compressor._choose_backend(small) == "thread"
        assert compressor._choose_backend(big) == "process"
        forced = MVQCompressor(LayerCompressionConfig(), workers=4,
                               parallel_backend="thread")
        assert forced._choose_backend(big) == "thread"

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
