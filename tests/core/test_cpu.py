"""The CPU budget: affinity-aware worker grants and the BLAS thread split."""

import sys
import threading

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor, cpu, precision
from repro.core import compressor as compressor_mod
from repro.nn import Conv2d, Sequential

needs_blas = pytest.mark.skipif(cpu.blas_threads() is None,
                                reason="no OpenBLAS thread symbol found")


@pytest.fixture()
def two_cpus(monkeypatch):
    """Budget for a 2-CPU host whatever this one has: regions split BLAS."""
    monkeypatch.setattr(cpu, "available_cpus", lambda: 2)


@pytest.fixture()
def restore_blas():
    before = cpu.blas_threads()
    yield before
    cpu.set_blas_threads(before)


@needs_blas
class TestBlasThreads:
    def test_set_round_trip(self, restore_blas):
        assert cpu.set_blas_threads(1) == restore_blas
        assert cpu.blas_threads() == 1
        assert cpu.set_blas_threads(None) == 1
        assert cpu.blas_threads() == 1

    def test_policy_reports_the_symbol_and_threads(self):
        policy = cpu.policy()
        assert policy["cpus"] == cpu.available_cpus()
        assert policy["blas_symbol"]
        assert policy["blas_threads"] == cpu.blas_threads()
        assert policy["blas_default_threads"] >= 1


def test_policy_fingerprints_the_host():
    import platform

    policy = cpu.policy()
    assert policy["numpy"] == np.__version__
    assert policy["python"] == platform.python_version()
    assert policy["machine"] == platform.machine()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert policy["blas_name"] == blas["name"]
    assert policy["blas_version"] == blas["version"]


def test_policy_without_a_build_config_reports_none(monkeypatch):
    def show_config():  # numpy < 1.26: no mode argument
        pass

    monkeypatch.setattr(np, "show_config", show_config)
    policy = cpu.policy()
    assert policy["blas_name"] is None and policy["blas_version"] is None


def test_policy_reports_the_distance_block_budget():
    policy = cpu.policy()
    assert policy["distance_block_bytes"] == precision.distance_block_bytes()
    assert policy["distance_block_source"] == \
        precision.distance_block_source()


class TestParallelRegion:
    def test_one_worker_is_sequential_and_leaves_blas(self, two_cpus,
                                                      restore_blas):
        with cpu.parallel(1) as granted:
            assert granted == 1
            assert cpu.blas_threads() == restore_blas

    def test_grant_is_capped_at_the_cpus(self, two_cpus, restore_blas):
        with cpu.parallel(8) as granted:
            assert granted == 2
        assert cpu.blas_threads() == restore_blas

    @needs_blas
    def test_outer_region_splits_blas_and_restores(self, two_cpus,
                                                   restore_blas):
        with cpu.parallel(2) as granted:
            assert granted == 2
            assert cpu.blas_threads() == 1
            assert cpu.policy()["granted_workers"] == 2
        assert cpu.blas_threads() == restore_blas

    @needs_blas
    def test_nested_region_grants_one_and_leaves_blas(self, two_cpus,
                                                      restore_blas):
        with cpu.parallel(2):
            cpu.set_blas_threads(3)  # a nested region must not touch this
            with cpu.parallel(2) as inner:
                assert inner == 1
                assert cpu.blas_threads() == 3
            assert cpu.blas_threads() == 3
        assert cpu.blas_threads() == restore_blas

    @needs_blas
    def test_blas_restored_after_exception(self, two_cpus, restore_blas):
        with pytest.raises(RuntimeError):
            with cpu.parallel(2):
                assert cpu.blas_threads() == 1
                raise RuntimeError("boom")
        assert cpu.blas_threads() == restore_blas
        with cpu.parallel(2) as granted:  # the budget was released too
            assert granted == 2

    @needs_blas
    def test_concurrent_regions_never_leave_blas_stale(self, two_cpus,
                                                       restore_blas):
        """Threads racing into regions: at most one holds the budget at a
        time, and BLAS ends where it started."""
        barrier = threading.Barrier(4)
        lock = threading.Lock()
        holders, peak = [0], [0]

        def enter():
            for _ in range(50):
                barrier.wait(timeout=10)
                with cpu.parallel(2) as granted:
                    if granted > 1:
                        with lock:
                            holders[0] += 1
                            peak[0] = max(peak[0], holders[0])
                        with lock:
                            holders[0] -= 1

        threads = [threading.Thread(target=enter) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert peak[0] == 1
        assert cpu.blas_threads() == restore_blas

    @needs_blas
    def test_enter_worker_holds_the_budget(self, two_cpus, restore_blas,
                                           monkeypatch):
        monkeypatch.setattr(cpu, "_in_worker", False)
        cpu.enter_worker(1)
        assert cpu.blas_threads() == 1
        for _ in range(2):  # held for the process's life, not one region
            with cpu.parallel(2) as granted:
                assert granted == 1
            assert cpu.blas_threads() == 1

    def test_worker_blas_threads_split_the_cpus(self, two_cpus):
        assert cpu.worker_blas_threads(1) is None
        assert cpu.worker_blas_threads(2) == 1
        assert cpu.worker_blas_threads(4) == 1


def _report_blas(task):
    return cpu.blas_threads()


@needs_blas
@pytest.mark.skipif(cpu.available_cpus() < 2, reason="needs >= 2 CPUs")
class TestWorkersInheritTheSplit:
    def test_thread_compressor_worker(self, trained_model, monkeypatch,
                                      restore_blas):
        monkeypatch.setattr(compressor_mod, "_cluster_layer_task",
                            _report_blas)
        compressor = MVQCompressor(LayerCompressionConfig(k=8, d=8),
                                   workers=2)
        targets = compressor.compressible_layers(trained_model)
        prepared = compressor.prepare_layers(targets)
        reported = compressor.cluster_layerwise(targets, prepared)
        assert set(reported.values()) == {max(1, cpu.available_cpus() // 2)}
        assert cpu.blas_threads() == restore_blas

    def test_spawned_serving_worker(self):
        from repro.nn.models import resnet18_mini
        from repro.serve import ProcessReplicaPool

        tiny = {"num_classes": 3, "seed": 1, "width": 8}
        compressed = MVQCompressor(
            LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=2)
        ).compress(resnet18_mini(**tiny))
        with ProcessReplicaPool(compressed, ("factory", resnet18_mini, tiny),
                                (3, 8, 8), workers=2) as pool:
            info = pool.info()
        expected = max(1, cpu.available_cpus() // 2)
        assert [w["cpu"]["blas_threads"] for w in info["workers"]] == [
            expected, expected]


@needs_blas
def test_compress_bits_do_not_depend_on_blas_threads(restore_blas):
    """Thread count changes timing only: the GEMMs here are large enough
    for OpenBLAS to split them, yet every array matches bit for bit."""
    rng = np.random.default_rng(0)
    model = Sequential(Conv2d(32, 64, 3, rng=rng), Conv2d(64, 128, 3, rng=rng))
    cfg = LayerCompressionConfig(k=64, d=8, max_kmeans_iterations=6)
    default = MVQCompressor(cfg).compress(model)
    cpu.set_blas_threads(1)
    single = MVQCompressor(cfg).compress(model)
    for name, layer in default.layers.items():
        other = single.layers[name]
        assert np.array_equal(layer.assignments, other.assignments)
        assert np.array_equal(layer.codebook.codewords,
                              other.codebook.codewords)
