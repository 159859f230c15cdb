"""ModelServer: bit-equality, concurrent clients, overload, stats, lifecycle."""

import threading
import time

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.nn import Conv2d, Sequential, predict_batched
from repro.serve import (
    BatchPolicy,
    ModelServer,
    ServerClosed,
    ServerOverloaded,
)

INPUT_SHAPE = (4, 6, 6)


def _compressed_stack(seed_a=0, seed_b=1):
    model = Sequential(
        Conv2d(4, 8, 3, padding=1, rng=np.random.default_rng(seed_a)),
        Conv2d(8, 8, 3, padding=1, rng=np.random.default_rng(seed_b)),
    )
    cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=5)
    MVQCompressor(cfg).export_compressed_model(model)
    model.eval()
    return model


@pytest.fixture()
def server():
    srv = ModelServer()
    srv.register("stack", _compressed_stack(),
                 policy=BatchPolicy(max_batch_size=4, max_wait_ms=2.0),
                 input_shape=INPUT_SHAPE)
    with srv:
        yield srv


class TestBitEquality:
    def test_batched_equals_library_batched_inference(self, server, rng):
        x = rng.normal(size=(12, *INPUT_SHAPE))
        out = server.predict_many("stack", x)
        reference = predict_batched(_compressed_stack(), x, batch_size=4)
        assert np.array_equal(out, reference)

    def test_request_served_alone_matches_coalesced(self, server, rng):
        x = rng.normal(size=(8, *INPUT_SHAPE))
        coalesced = server.predict_many("stack", x)
        # one at a time: each forward runs batch-invariant kernels, so the
        # bits cannot depend on who shared the batch
        solo = np.stack([server.predict("stack", row) for row in x])
        assert np.array_equal(solo, coalesced)

    def test_lone_request_runs_a_one_row_forward(self, rng, monkeypatch):
        model = _compressed_stack()
        srv = ModelServer()
        srv.register("stack", model,
                     policy=BatchPolicy(max_batch_size=4, max_wait_ms=2.0),
                     input_shape=INPUT_SHAPE)
        rows = []
        forward = model.forward

        def spy(batch):
            rows.append(len(batch))
            return forward(batch)

        monkeypatch.setattr(model, "forward", spy)
        x = rng.normal(size=(8, *INPUT_SHAPE))
        with srv:
            coalesced = srv.predict_many("stack", x)
            rows.clear()
            solo = srv.predict("stack", x[5])
        assert rows == [1]          # no padding up to max_batch_size
        assert np.array_equal(solo, coalesced[5])

    def test_interleaved_concurrent_clients_get_their_own_rows(self, server, rng):
        x = rng.normal(size=(24, *INPUT_SHAPE))
        reference = predict_batched(_compressed_stack(), x, batch_size=4)
        results = {}
        lock = threading.Lock()

        def client(indices):
            for i in indices:
                out = server.predict("stack", x[i])
                with lock:
                    results[i] = out

        threads = [threading.Thread(target=client,
                                    args=(range(t, 24, 3),))
                   for t in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert sorted(results) == list(range(24))
        for i, out in results.items():
            # arbitrary coalescing across clients, identical bits per row
            assert np.array_equal(out, reference[i])


class TestWorkConservingDispatch:
    """An idle replica takes what is queued now: a long max-wait is inert."""

    @pytest.fixture()
    def patient(self):
        srv = ModelServer()
        srv.register("stack", _compressed_stack(),
                     policy=BatchPolicy(max_batch_size=4,
                                        max_wait_ms=10_000.0),
                     input_shape=INPUT_SHAPE)
        with srv:
            yield srv

    def test_lone_request_does_not_wait_out_max_wait(self, patient, rng):
        start = time.perf_counter()
        patient.predict("stack", rng.normal(size=INPUT_SHAPE), timeout=5.0)
        assert time.perf_counter() - start < 1.0

    def test_burst_bits_equal_library_batched(self, patient, rng):
        # 10 rows over max_batch_size=4: at least one batch leaves partial
        x = rng.normal(size=(10, *INPUT_SHAPE))
        start = time.perf_counter()
        out = patient.predict_many("stack", x, timeout=5.0)
        assert time.perf_counter() - start < 1.0
        reference = predict_batched(_compressed_stack(), x, batch_size=4)
        assert np.array_equal(out, reference)


class TestRegistryAndValidation:
    def test_multi_model_routing(self, rng):
        srv = ModelServer()
        model_a, model_b = _compressed_stack(0, 1), _compressed_stack(2, 3)
        srv.register("a", model_a, input_shape=INPUT_SHAPE)
        srv.register("b", model_b, input_shape=INPUT_SHAPE)
        x = rng.normal(size=(6, *INPUT_SHAPE))
        with srv:
            out_a = srv.predict_many("a", x)
            out_b = srv.predict_many("b", x)
        ref_a = predict_batched(_compressed_stack(0, 1), x, batch_size=8)
        ref_b = predict_batched(_compressed_stack(2, 3), x, batch_size=8)
        assert np.array_equal(out_a, ref_a)
        assert np.array_equal(out_b, ref_b)
        with pytest.raises(KeyError):
            srv.submit("c", x[0])
        with pytest.raises(KeyError):
            srv.submit(None, x[0])  # ambiguous with two models

    def test_default_model_with_single_registration(self, server, rng):
        out = server.predict(None, rng.normal(size=INPUT_SHAPE))
        assert out.shape == (8, 6, 6)

    def test_shape_validation(self, server, rng):
        with pytest.raises(ValueError):
            server.submit("stack", rng.normal(size=(4, 5, 5)))

    def test_failed_warmup_leaves_nothing_registered(self):
        from repro.nn.module import Module

        class Unforwardable(Module):
            def forward(self, x):
                raise RuntimeError("cannot forward")

        srv = ModelServer()
        with pytest.raises(RuntimeError, match="cannot forward"):
            srv.register("broken", Unforwardable(), input_shape=INPUT_SHAPE)
        assert srv.models() == []  # the name is free again
        srv.register("broken", _compressed_stack(), input_shape=INPUT_SHAPE)
        assert srv.models() == ["broken"]
        srv.shutdown()

    def test_duplicate_and_shared_replicas_rejected(self):
        srv = ModelServer()
        model = _compressed_stack()
        srv.register("m", model, input_shape=INPUT_SHAPE)
        with pytest.raises(ValueError):
            srv.register("m", _compressed_stack(), input_shape=INPUT_SHAPE)
        with pytest.raises(ValueError):
            srv.register("twins", [model, model], input_shape=INPUT_SHAPE)


class TestOverloadAndStats:
    def test_bounded_queue_sheds_and_counts(self, rng):
        srv = ModelServer()
        srv.register("m", _compressed_stack(),
                     policy=BatchPolicy(max_batch_size=2, max_queue_size=3,
                                        overload="shed"),
                     input_shape=INPUT_SHAPE)
        # workers not started: the queue can only fill
        for _ in range(3):
            srv.submit("m", rng.normal(size=INPUT_SHAPE))
        with pytest.raises(ServerOverloaded):
            srv.submit("m", rng.normal(size=INPUT_SHAPE))
        report = srv.stats_report()
        assert report["models"]["m"]["requests_shed"] == 1
        assert report["queues"]["m"] == 3
        srv.shutdown(drain=False)

    def test_stats_report_shape(self, server, rng):
        x = rng.normal(size=(10, *INPUT_SHAPE))
        server.predict_many("stack", x)
        stats = server.stats_report()["models"]["stack"]
        assert stats["requests_completed"] == 10
        histogram = stats["batch_size_histogram"]
        assert sum(int(size) * count for size, count in histogram.items()) == 10
        assert stats["batches_executed"] == sum(histogram.values())
        assert stats["latency_ms"]["p95"] >= stats["latency_ms"]["p50"] >= 0.0
        assert stats["throughput_rps"] > 0
        policies = server.stats_report()["policies"]["stack"]
        assert policies["max_batch_size"] == 4

    def test_worker_failure_propagates_to_requests(self, rng):
        from repro.nn.module import Module

        class Exploding(Module):
            def forward(self, x):
                raise RuntimeError("boom")

        srv = ModelServer()
        srv.register("bad", Exploding(), warmup=False)
        with srv:
            handle = srv.submit("bad", rng.normal(size=INPUT_SHAPE))
            with pytest.raises(RuntimeError, match="boom"):
                handle.result(5.0)
        assert srv.stats_report()["models"]["bad"]["requests_failed"] == 1


class TestLifecycle:
    def test_shutdown_drains_queued_requests(self, rng):
        srv = ModelServer()
        srv.register("m", _compressed_stack(),
                     policy=BatchPolicy(max_batch_size=4, max_wait_ms=50.0),
                     input_shape=INPUT_SHAPE)
        srv.start()
        handles = [srv.submit("m", rng.normal(size=INPUT_SHAPE))
                   for _ in range(6)]
        srv.shutdown(drain=True)
        outs = [h.result(5.0) for h in handles]
        assert all(o.shape == (8, 6, 6) for o in outs)

    def test_submit_after_shutdown_raises(self, server, rng):
        server.shutdown()
        with pytest.raises(ServerClosed):
            server.submit("stack", rng.normal(size=INPUT_SHAPE))

    def test_no_drain_shutdown_with_live_workers_is_deterministic(
            self, rng, monkeypatch):
        model = _compressed_stack()
        srv = ModelServer()
        srv.register("m", model,
                     policy=BatchPolicy(max_batch_size=32, max_queue_size=64),
                     input_shape=INPUT_SHAPE)
        # the only worker is held inside the forward of a first request, so
        # the burst behind it is deterministically queued (not in flight)
        # when shutdown lands
        entered, release = threading.Event(), threading.Event()
        forward = model.forward

        def gated(batch):
            entered.set()
            assert release.wait(10.0)
            return forward(batch)

        monkeypatch.setattr(model, "forward", gated)
        srv.start()
        in_flight = srv.submit("m", rng.normal(size=INPUT_SHAPE))
        assert entered.wait(5.0)
        handles = [srv.submit("m", rng.normal(size=INPUT_SHAPE))
                   for _ in range(10)]
        closer = threading.Thread(target=srv.shutdown,
                                  kwargs={"drain": False})
        closer.start()
        try:
            # every queued request resolves promptly with ServerClosed —
            # whichever of the woken worker or shutdown's own drain loop
            # pops it, neither executes it — while the worker is still busy
            for handle in handles:
                with pytest.raises(ServerClosed):
                    handle.result(5.0)
        finally:
            release.set()
            closer.join(10.0)
        assert not closer.is_alive()
        # the batch the worker had already popped still completes
        assert in_flight.result(5.0).shape == (8, *INPUT_SHAPE[1:])

    def test_shutdown_without_drain_fails_pending(self, rng):
        srv = ModelServer()
        srv.register("m", _compressed_stack(),
                     policy=BatchPolicy(max_batch_size=4, max_wait_ms=50.0),
                     input_shape=INPUT_SHAPE)
        # never started: pending requests cannot complete, only fail fast
        handle = srv.submit("m", rng.normal(size=INPUT_SHAPE))
        srv.shutdown(drain=False)
        with pytest.raises(ServerClosed):
            handle.result(5.0)
