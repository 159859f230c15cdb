"""Failure-hardened serving: retries, deadlines, quarantine, degradation.

Every test drives the server through a seeded :class:`FaultPlan`, so the
chaos it exercises is deterministic — the same faults fire at the same
visit indices on every run.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.core.faults import FaultPlan, FaultRule
from repro.nn import Conv2d, Sequential, predict_batched
from repro.serve import (
    BatchPolicy,
    EngineFault,
    FaultPolicy,
    ModelServer,
    ReplicaUnavailable,
    RequestFailed,
    RequestTimeout,
    ServerClosed,
    ServingError,
    error_payload,
    serving_chaos_plan,
)

INPUT_SHAPE = (4, 6, 6)
POLICY = BatchPolicy(max_batch_size=4, max_wait_ms=2.0)


def _compressed_stack(seed_a=0, seed_b=1):
    model = Sequential(
        Conv2d(4, 8, 3, padding=1, rng=np.random.default_rng(seed_a)),
        Conv2d(8, 8, 3, padding=1, rng=np.random.default_rng(seed_b)),
    )
    cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=5)
    MVQCompressor(cfg).export_compressed_model(model)
    model.eval()
    return model


def _server(fault_policy, replicas=1, policy=POLICY):
    srv = ModelServer()
    srv.register("stack",
                 [_compressed_stack() for _ in range(replicas)]
                 if replicas > 1 else _compressed_stack(),
                 policy=policy, fault_policy=fault_policy,
                 input_shape=INPUT_SHAPE)
    return srv


class TestRetries:
    def test_transient_fault_is_retried_to_success(self, rng):
        # exactly the first two forwards fail; retries land on attempt 3
        plan = FaultPlan([FaultRule("serve.replica.forward",
                                    probability=1.0, max_injections=2)])
        srv = _server(FaultPolicy(max_retries=3, backoff_initial_ms=1.0))
        x = rng.normal(size=(4, *INPUT_SHAPE))
        with plan.active(), srv:
            out = srv.predict_many("stack", x)
        reference = predict_batched(_compressed_stack(), x, batch_size=4)
        assert np.array_equal(out, reference)
        faults = srv.stats_report()["models"]["stack"]["faults"]
        assert faults["replica_failures"] == 2
        assert faults["retries"] >= 1

    def test_retry_budget_exhaustion_is_typed_failure(self, rng):
        plan = FaultPlan([FaultRule("serve.replica.forward", probability=1.0)])
        srv = _server(FaultPolicy(max_retries=1, backoff_initial_ms=1.0,
                                  quarantine_after=0))
        with plan.active(), srv:
            handle = srv.submit("stack", rng.normal(size=INPUT_SHAPE))
            with pytest.raises(RequestFailed) as info:
                handle.result(timeout=10.0)
        assert info.value.attempts == 2  # initial try + 1 retry
        assert info.value.code == "failed"
        assert info.value.cause is not None
        assert srv.stats_report()["models"]["stack"]["requests_failed"] == 1

    def test_retry_reroutes_to_healthy_replica(self, rng):
        # every forward on the *first* visited replica thread fails is not
        # expressible per-replica, but with 2 replicas and a 2-injection
        # budget the retried batch must eventually execute cleanly
        plan = FaultPlan([FaultRule("serve.replica.forward",
                                    probability=1.0, max_injections=2)])
        srv = _server(FaultPolicy(max_retries=4, backoff_initial_ms=1.0),
                      replicas=2)
        x = rng.normal(size=(8, *INPUT_SHAPE))
        with plan.active(), srv:
            out = srv.predict_many("stack", x)
        reference = predict_batched(_compressed_stack(), x, batch_size=4)
        assert np.array_equal(out, reference)


class TestDeadlines:
    def test_queued_request_times_out(self, rng):
        # all forwards fail so the request burns its deadline in retries
        plan = FaultPlan([FaultRule("serve.replica.forward", probability=1.0)])
        srv = _server(FaultPolicy(max_retries=100, backoff_initial_ms=20.0,
                                  deadline_ms=60.0, quarantine_after=0))
        with plan.active(), srv:
            handle = srv.submit("stack", rng.normal(size=INPUT_SHAPE))
            with pytest.raises(RequestTimeout) as info:
                handle.result(timeout=10.0)
        assert info.value.code == "timeout"
        assert srv.stats_report()["models"]["stack"]["faults"]["timeouts"] == 1

    def test_deadline_override_per_request(self, rng):
        srv = _server(FaultPolicy(deadline_ms=None))
        with srv:
            handle = srv.submit("stack", rng.normal(size=INPUT_SHAPE),
                                deadline_ms=5000.0)
            assert handle.result(timeout=10.0).shape == (8, 6, 6)
        assert handle.deadline is not None


class TestQuarantine:
    def test_failing_replica_is_quarantined_and_readmitted(self, rng):
        # 3 consecutive batch failures trip quarantine; warmup succeeds so
        # the replica is re-admitted and later requests complete
        plan = FaultPlan([FaultRule("serve.replica.forward",
                                    probability=1.0, max_injections=3)])
        srv = _server(FaultPolicy(max_retries=5, backoff_initial_ms=1.0,
                                  quarantine_after=3, rewarm_after_ms=10.0))
        x = rng.normal(size=(4, *INPUT_SHAPE))
        with plan.active(), srv:
            out = srv.predict_many("stack", x)
            deadline = time.perf_counter() + 5.0
            while (srv.stats_report()["models"]["stack"]["faults"]["restarts"]
                   < 1 and time.perf_counter() < deadline):
                time.sleep(0.01)
        reference = predict_batched(_compressed_stack(), x, batch_size=4)
        assert np.array_equal(out, reference)
        faults = srv.stats_report()["models"]["stack"]["faults"]
        assert faults["quarantines"] == 1
        assert faults["restarts"] == 1
        health = srv.health_report()["stack"]
        assert health["healthy"] == 1

    def test_reject_when_unavailable(self, rng):
        plan = FaultPlan([FaultRule("serve.replica.forward", probability=1.0),
                          FaultRule("serve.replica.warmup", probability=1.0)])
        srv = _server(FaultPolicy(max_retries=0, backoff_initial_ms=1.0,
                                  quarantine_after=1, rewarm_after_ms=30.0,
                                  reject_when_unavailable=True))
        with plan.active(), srv:
            handle = srv.submit("stack", rng.normal(size=INPUT_SHAPE))
            with pytest.raises(RequestFailed):
                handle.result(timeout=10.0)
            deadline = time.perf_counter() + 5.0
            while (srv.health_report()["stack"]["healthy"] > 0
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            with pytest.raises(ReplicaUnavailable) as info:
                srv.submit("stack", rng.normal(size=INPUT_SHAPE))
        assert info.value.code == "unavailable"


class TestDegradation:
    def test_engine_fault_degrades_to_dense_bit_identically(self, rng):
        plan = FaultPlan([FaultRule("serve.replica.forward", probability=1.0,
                                    error="engine", max_injections=1)])
        srv = _server(FaultPolicy())
        x = rng.normal(size=(8, *INPUT_SHAPE))
        with plan.active(), srv:
            out = srv.predict_many("stack", x)
        # the stack's `auto` engines already run dense, so the
        # dense fallback keeps their bits (a `lut`-pinned replica would
        # match only within float re-association)
        reference = predict_batched(_compressed_stack(), x, batch_size=4)
        assert np.array_equal(out, reference)
        stats = srv.stats_report()["models"]["stack"]
        assert stats["faults"]["degraded_serves"] >= 1
        assert stats["faults"]["replica_failures"] == 0  # degraded, not failed
        health = srv.health_report()["stack"]["replicas"][0]
        assert health["degraded"] is True and health["healthy"] is True

    def test_degradation_disabled_counts_as_failure(self, rng):
        plan = FaultPlan([FaultRule("serve.replica.forward", probability=1.0,
                                    error="engine")])
        srv = _server(FaultPolicy(max_retries=0, quarantine_after=0,
                                  degrade_on_engine_fault=False))
        with plan.active(), srv:
            handle = srv.submit("stack", rng.normal(size=INPUT_SHAPE))
            with pytest.raises(RequestFailed) as info:
                handle.result(timeout=10.0)
        assert isinstance(info.value.cause, EngineFault)


class TestDrainUnderFault:
    def test_drain_resolves_every_request_with_quarantine_and_retries(self, rng):
        """The drain-under-fault guarantee: shutdown(drain=True) with a
        quarantined replica and requests mid-retry resolves *every* queued
        request — a result or a typed error — with no hangs."""
        plan = FaultPlan([
            FaultRule("serve.replica.forward", probability=0.6),
            FaultRule("serve.replica.warmup", probability=0.8),
        ], seed=13)
        srv = _server(FaultPolicy(max_retries=2, backoff_initial_ms=5.0,
                                  quarantine_after=2, rewarm_after_ms=500.0),
                      replicas=2)
        x = rng.normal(size=(24, *INPUT_SHAPE))
        with plan.active():
            srv.start()
            handles = [srv.submit("stack", row) for row in x]
            # let faults accumulate: at 60% failure some batch fails twice in
            # a row on one replica and trips its quarantine
            deadline = time.perf_counter() + 5.0
            while (srv.stats_report()["models"]["stack"]["faults"]["quarantines"]
                   < 1 and time.perf_counter() < deadline):
                time.sleep(0.005)
            start = time.perf_counter()
            srv.shutdown(drain=True, timeout=30.0)
            elapsed = time.perf_counter() - start
        assert elapsed < 20.0, "drain must not hang"
        reference = predict_batched(_compressed_stack(), x, batch_size=4)
        outcomes = {"ok": 0, "error": 0}
        for i, handle in enumerate(handles):
            assert handle.done(), f"request {i} left unresolved by drain"
            try:
                out = handle.result(timeout=0.0)
            except ServingError as error:
                # typed, structured, and renderable as a wire payload
                assert error.code in ("failed", "timeout", "closed")
                assert "code" in error_payload(error)
                outcomes["error"] += 1
            else:
                # successes stay bit-identical even under chaos
                assert np.array_equal(out, reference[i])
                outcomes["ok"] += 1
        assert outcomes["ok"] + outcomes["error"] == len(handles)
        faults = srv.stats_report()["models"]["stack"]["faults"]
        assert faults["quarantines"] >= 1
        assert faults["retries"] >= 1

    def test_no_drain_shutdown_fails_queued_requests(self, rng):
        plan = FaultPlan([FaultRule("serve.replica.forward", probability=1.0)])
        srv = _server(FaultPolicy(max_retries=50, backoff_initial_ms=50.0,
                                  quarantine_after=0))
        with plan.active():
            srv.start()
            handles = [srv.submit("stack", rng.normal(size=INPUT_SHAPE))
                       for _ in range(6)]
            time.sleep(0.05)  # let retries enter their backoff window
            srv.shutdown(drain=False, timeout=30.0)
        for handle in handles:
            with pytest.raises((ServerClosed, RequestFailed)):
                handle.result(timeout=10.0)


class TestChaosPlan:
    def test_serving_chaos_plan_is_reproducible(self, rng):
        x = rng.normal(size=(32, *INPUT_SHAPE))
        reference = predict_batched(_compressed_stack(), x, batch_size=4)
        summaries = []
        for _ in range(2):
            srv = _server(FaultPolicy(max_retries=4, backoff_initial_ms=1.0,
                                      rewarm_after_ms=10.0))
            plan = serving_chaos_plan(rate=0.3, seed=21)
            with plan.active(), srv:
                for i, handle in enumerate(
                        [srv.submit("stack", row) for row in x]):
                    try:
                        out = handle.result(timeout=30.0)
                    except ServingError:
                        continue
                    assert np.array_equal(out, reference[i])
            summaries.append(plan.summary()["injections"])
        # the injected counts are a pure function of (seed, point, visit)
        assert summaries[0] == summaries[1]
        assert sum(summaries[0].values()) >= 1

    def test_chaos_plan_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            serving_chaos_plan(rate=1.5)

    def test_fault_metrics_snapshot_keys(self, rng):
        srv = _server(FaultPolicy())
        with srv:
            srv.predict("stack", rng.normal(size=INPUT_SHAPE))
        faults = srv.stats_report()["models"]["stack"]["faults"]
        assert set(faults) == {"timeouts", "retries", "replica_failures",
                               "quarantines", "restarts", "degraded_serves"}
        assert all(v == 0 for v in faults.values())

    def test_policies_report_includes_fault_knobs(self, rng):
        srv = _server(FaultPolicy(max_retries=7, deadline_ms=1234.0,
                                  quarantine_after=5))
        with srv:
            policies = srv.stats_report()["policies"]["stack"]
        assert policies["max_retries"] == 7
        assert policies["deadline_ms"] == 1234.0
        assert policies["quarantine_after"] == 5


class TestFaultPolicyValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            FaultPolicy(deadline_ms=0.0)

    def test_backoff_schedule_is_exponential(self):
        policy = FaultPolicy(backoff_initial_ms=2.0, backoff_multiplier=2.0)
        assert policy.backoff_s(1) == pytest.approx(0.002)
        assert policy.backoff_s(2) == pytest.approx(0.004)
        assert policy.backoff_s(3) == pytest.approx(0.008)
