"""Sharded process-worker serving: bit-exactness, re-spawn, zero-copy."""

import os
import threading
import time

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.core.faults import FaultPlan, FaultRule
from repro.nn import predict_batched
from repro.nn.compressed import swap_to_compressed
from repro.nn.models import resnet18_mini
from repro.serve import (
    BatchPolicy,
    FaultPolicy,
    ModelServer,
    ProcessReplicaPool,
    WorkerFault,
)

TINY = {"num_classes": 3, "seed": 1, "width": 8}
BUILDER = ("factory", resnet18_mini, dict(TINY))
SHAPE = (3, 8, 8)


def _tiny_compressed():
    cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=2)
    compressed = MVQCompressor(cfg).compress(resnet18_mini(**TINY))
    replica = resnet18_mini(**TINY)
    swap_to_compressed(replica, compressed, mode="auto")
    replica.eval()
    return compressed, replica


@pytest.fixture(scope="module")
def compressed_pair():
    return _tiny_compressed()


@pytest.fixture(scope="module")
def pool(compressed_pair):
    compressed, _ = compressed_pair
    pool = ProcessReplicaPool(compressed, BUILDER, SHAPE, workers=2,
                              max_batch_size=4)
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def requests():
    return np.random.default_rng(0).standard_normal((12, *SHAPE))


class TestBitExactness:
    def test_process_equals_thread_equals_solo(self, compressed_pair, pool,
                                               requests):
        _, thread_replica = compressed_pair
        reference = predict_batched(thread_replica, requests, batch_size=4)

        server = ModelServer()
        pool.register_with(server, "tiny",
                           policy=BatchPolicy(max_batch_size=4,
                                              max_wait_ms=2.0))
        with server:
            batched = server.predict_many("tiny", requests)
            solo = np.stack([server.predict("tiny", requests[i])
                             for i in range(3)])
        assert np.array_equal(batched, reference)
        assert np.array_equal(solo, batched[:3])

    def test_lone_request_ships_one_row(self, pool, requests, monkeypatch):
        shipped = []
        for replica in pool.replicas:
            def spy(batch, forward=replica.forward):
                shipped.append(len(batch))
                return forward(batch)
            monkeypatch.setattr(replica, "forward", spy)
        server = ModelServer()
        pool.register_with(server, "tiny",
                           policy=BatchPolicy(max_batch_size=4,
                                              max_wait_ms=2.0))
        with server:
            coalesced = server.predict_many("tiny", requests[:4])
            shipped.clear()
            solo = server.predict("tiny", requests[2])
        # only the live row crosses the pipe, and the worker's 1-row
        # forward reproduces the coalesced bits
        assert shipped == [1]
        assert np.array_equal(solo, coalesced[2])

    def test_long_max_wait_is_inert(self, compressed_pair, pool, requests):
        # work-conserving dispatch: an idle process worker takes what is
        # queued now, so neither a lone request nor a burst's partial
        # batch sits out the 10 s max-wait
        _, thread_replica = compressed_pair
        server = ModelServer()
        pool.register_with(server, "tiny",
                           policy=BatchPolicy(max_batch_size=4,
                                              max_wait_ms=10_000.0))
        burst = requests[:10]
        with server:
            start = time.perf_counter()
            server.predict("tiny", requests[0], timeout=5.0)
            lone_s = time.perf_counter() - start
            start = time.perf_counter()
            out = server.predict_many("tiny", burst, timeout=5.0)
            burst_s = time.perf_counter() - start
        assert lone_s < 1.0
        assert burst_s < 1.0
        reference = predict_batched(thread_replica, burst, batch_size=4)
        assert np.array_equal(out, reference)

    def test_direct_forward_matches_reference(self, compressed_pair, pool,
                                              requests):
        _, thread_replica = compressed_pair
        batch = requests[:4]
        expected = np.asarray(thread_replica.forward(batch))
        got = pool.replicas[0].forward(batch)
        assert np.array_equal(got, expected)


class TestZeroCopy:
    def test_workers_map_one_shared_copy(self, pool):
        info = pool.info()
        assert info["arena"]["nbytes"] > 0
        # creator (1) + one attach per worker
        assert info["arena"]["refcount"] == 1 + len(pool.replicas)
        for worker in info["workers"]:
            assert worker["arena_shared_bytes"] > 0
            # every compressed/model-state byte resolves into the arena
            assert worker["private_state_bytes"] == 0

    def test_distinct_worker_processes(self, pool):
        pids = {replica.pid for replica in pool.replicas}
        assert len(pids) == len(pool.replicas)
        assert os.getpid() not in pids


class TestRespawn:
    def test_sigkilled_worker_respawns_transparently(self, compressed_pair,
                                                     requests):
        compressed, thread_replica = compressed_pair
        reference = predict_batched(thread_replica, requests, batch_size=4)
        with ProcessReplicaPool(compressed, BUILDER, SHAPE, workers=1,
                                max_batch_size=4) as pool:
            replica = pool.replicas[0]
            before = replica.pid
            assert np.array_equal(replica.forward(requests[:4]),
                                  reference[:4])
            replica.kill()
            # the next forward re-spawns, re-attaches and serves exact bits
            assert np.array_equal(replica.forward(requests[:4]),
                                  reference[:4])
            assert replica.respawns == 1
            assert replica.pid != before

    def test_kill_under_load_resolves_every_request(self, compressed_pair,
                                                    requests):
        compressed, thread_replica = compressed_pair
        reference = predict_batched(thread_replica, requests, batch_size=4)
        with ProcessReplicaPool(compressed, BUILDER, SHAPE, workers=2,
                                max_batch_size=4) as pool:
            server = ModelServer()
            pool.register_with(
                server, "tiny",
                policy=BatchPolicy(max_batch_size=4, max_wait_ms=2.0),
                fault_policy=FaultPolicy(max_retries=4,
                                         backoff_initial_ms=1.0))
            with server:
                handles = [server.submit("tiny", row) for row in requests]
                pool.replicas[0].kill()
                outputs = [h.result(timeout=120.0) for h in handles]
            for i, out in enumerate(outputs):
                assert np.array_equal(out, reference[i])

    def test_drain_resolves_pending_requests(self, compressed_pair, requests):
        compressed, _ = compressed_pair
        with ProcessReplicaPool(compressed, BUILDER, SHAPE, workers=2,
                                max_batch_size=4) as pool:
            server = ModelServer()
            pool.register_with(server, "tiny",
                               policy=BatchPolicy(max_batch_size=4,
                                                  max_wait_ms=5.0))
            server.start()
            handles = [server.submit("tiny", row) for row in requests]
            server.shutdown(drain=True)
            for handle in handles:
                assert handle.result(timeout=5.0).shape == (TINY["num_classes"],)

    def test_closed_pool_raises_typed_fault(self, compressed_pair):
        compressed, _ = compressed_pair
        pool = ProcessReplicaPool(compressed, BUILDER, SHAPE, workers=1,
                                  max_batch_size=4)
        pool.close()
        with pytest.raises(WorkerFault):
            pool.replicas[0].forward(np.zeros((1, *SHAPE)))


class TestFaultInjection:
    def test_ipc_fault_point_raises_worker_fault(self, pool, requests):
        plan = FaultPlan([FaultRule("serve.worker.ipc", probability=1.0,
                                    error="worker")], seed=0)
        with plan.active():
            with pytest.raises(WorkerFault):
                pool.replicas[0].forward(requests[:2])
        # the worker itself was never touched: the next forward just works
        assert pool.replicas[0].forward(requests[:2]).shape == (2, 3)

    def test_spawn_fault_point_raises_worker_fault(self, compressed_pair):
        compressed, _ = compressed_pair
        plan = FaultPlan([FaultRule("serve.worker.spawn", probability=1.0,
                                    error="worker")], seed=0)
        with plan.active():
            with pytest.raises(WorkerFault):
                ProcessReplicaPool(compressed, BUILDER, SHAPE, workers=1,
                                   max_batch_size=4)

    def test_degrade_is_sticky_across_respawn(self, compressed_pair):
        compressed, _ = compressed_pair
        with ProcessReplicaPool(compressed, BUILDER, SHAPE, workers=1,
                                max_batch_size=4) as pool:
            replica = pool.replicas[0]
            replica.degrade_to_dense()
            assert set(replica.info()["engine_modes"]) == {"dense"}
            replica.kill()
            # info() re-spawns; the degrade flag re-applies on handshake
            assert set(replica.info()["engine_modes"]) == {"dense"}
            assert replica.respawns >= 1


class TestArenaLifecycle:
    def test_pool_close_removes_arena(self, compressed_pair):
        compressed, _ = compressed_pair
        pool = ProcessReplicaPool(compressed, BUILDER, SHAPE, workers=1,
                                  max_batch_size=4)
        name = pool.arena.name
        assert os.path.exists(f"/dev/shm/{name}")
        pool.close()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_concurrent_forwards_from_many_threads(self, pool, requests):
        """The per-replica lock serializes pipe traffic safely."""
        results = [None] * 8
        expected = pool.replicas[0].forward(requests[:2])

        def hit(i):
            results[i] = pool.replicas[i % 2].forward(requests[:2])

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for out in results:
            assert np.array_equal(out, expected)


class TestLutDerivedZeroCopy:
    """A pinned LUT engine mode must survive the spawn trip: workers adopt
    the warmed routing tables from the arena (zero private derived bytes)
    and serve bits identical to the parent's thread replica."""

    def test_workers_adopt_lut_tables_zero_copy(self, requests):
        cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=2)
        compressed = MVQCompressor(cfg).compress(resnet18_mini(**TINY))
        replica = resnet18_mini(**TINY)
        swap_to_compressed(replica, compressed, mode="lut")
        replica.eval()
        reference = predict_batched(replica, requests[:4], batch_size=4)
        with ProcessReplicaPool(compressed, BUILDER, SHAPE, workers=1,
                                max_batch_size=4, mode="lut",
                                model=replica) as pool:
            out = pool.replicas[0].forward(requests[:4])
            info = pool.replicas[0].info()
        assert np.array_equal(out, reference)
        # raw compressed/model state AND engine-derived tables both resolve
        # into the shared arena — nothing is rebuilt or copied per worker
        assert info["private_state_bytes"] == 0
        assert info["derived_private_bytes"] == 0
        assert info["derived_shared_bytes"] > 0
        assert set(info["engine_modes"]) == {"lut"}
        sample = next(iter(info["engines"].values()))
        assert sample["mode"] == "lut"
        assert sample["assignments_dtype"] == "uint8"
        assert sample["lut_table_bytes"] > 0
