"""Dynamic-batching serving throughput vs sequential single-image serving.

The synthetic load generator drives the ``repro.serve`` model server the
way CI and the README quote it: a compressed ResNet-18-mini is served
twice over the same request stream —

* **sequential** — the no-server baseline: one ``model.forward`` per
  request at batch shape 1, the latency-serving lower bound every
  per-call overhead (Python layer dispatch, im2col setup, kernel launch
  bookkeeping) is paid per image;
* **dynamically batched** — requests are enqueued through the
  :class:`~repro.serve.server.ModelServer`, whose work-conserving dispatch
  hands an idle worker everything queued (up to the max-batch bound), so
  requests that arrive during a forward coalesce and those per-call costs
  amortise across the batch (``max_wait_ms`` is echoed, not waited on).

Alongside throughput the bench records the server's p50/p95 latency, the
batch-size histogram (was the batcher actually coalescing?), and two
bit-equality guards: server outputs must equal
:func:`repro.nn.serve.predict_batched` on the stacked stream *and* a
request served alone must reproduce the coalesced result bit-for-bit
(the batch-invariant-kernel property).

Runnable standalone for CI gating::

    PYTHONPATH=src python -m benchmarks.perf.bench_serving --quick

exits non-zero when dynamic batching drops below 1.5x sequential serving
or either bit-equality guard fails.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict

if __package__ in (None, ""):  # running as a plain script
    _root = Path(__file__).resolve().parents[2]
    for entry in (_root, _root / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

import numpy as np

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.core.telemetry import quantile
from repro.nn import predict_batched, prepare_for_serving
from repro.nn.compressed import swap_to_compressed
from repro.nn.models import resnet18_mini
from repro.serve import (
    BatchPolicy,
    FaultPolicy,
    ModelServer,
    ServingError,
    serving_chaos_plan,
)

INPUT_SHAPE = (3, 16, 16)

FULL = dict(num_requests=256, max_batch=16, max_wait_ms=5.0,
            k=24, iterations=8, repeats=3)
QUICK = dict(num_requests=64, max_batch=8, max_wait_ms=5.0,
             k=16, iterations=4, repeats=2)

#: chaos-mode knobs (``--chaos``): ~10% of replica forwards fault (split
#: across crashes / engine faults / delays, see serving_chaos_plan); the
#: seed makes every run inject the identical fault sequence
FAULT_RATE = 0.10
FAULT_SEED = 7


def _compress_model(p: Dict[str, object], count: int = 2):
    """One compressed ResNet-18 plus ``count`` thread-serving replicas of it."""
    cfg = LayerCompressionConfig(k=p["k"], d=8,
                                 max_kmeans_iterations=p["iterations"])
    base = resnet18_mini(num_classes=5, seed=1)
    compressed = MVQCompressor(cfg).compress(base)
    replicas = []
    for _ in range(count):
        replica = resnet18_mini(num_classes=5, seed=1)
        swap_to_compressed(replica, compressed, mode="auto")
        replica.eval()
        replicas.append(replica)
    return compressed, replicas


def _compressed_replicas(p: Dict[str, object], count: int = 2):
    """``count`` independent serving replicas of one compressed ResNet-18."""
    return _compress_model(p, count)[1]


def run(smoke: bool = False) -> Dict[str, object]:
    p = QUICK if smoke else FULL
    n, max_batch = p["num_requests"], p["max_batch"]
    seq_model, srv_model = _compressed_replicas(p)

    rng = np.random.default_rng(0)
    requests = rng.standard_normal((n, *INPUT_SHAPE))

    # -- sequential single-image serving (each model warmed at its own
    #    batch size, so neither path builds tables or buffers mid-run)
    prepare_for_serving(seq_model, INPUT_SHAPE, batch_size=1)

    def sequential_pass():
        return np.stack([np.asarray(seq_model.forward(requests[i:i + 1]))[0]
                         for i in range(n)])

    sequential_pass()  # warm
    best_seq = float("inf")
    for _ in range(p["repeats"]):
        start = time.perf_counter()
        seq_out = sequential_pass()
        best_seq = min(best_seq, time.perf_counter() - start)

    # -- dynamic batching through the model server
    policy = BatchPolicy(max_batch_size=max_batch, max_wait_ms=p["max_wait_ms"],
                         max_queue_size=max(2 * n, 64), overload="shed")
    server = ModelServer()
    server.register("resnet18", srv_model, policy=policy,
                    input_shape=INPUT_SHAPE)
    with server:
        server.predict_many("resnet18", requests[:max_batch])  # warm
        best_batched = float("inf")
        for _ in range(p["repeats"]):
            start = time.perf_counter()
            batched_out = server.predict_many("resnet18", requests)
            best_batched = min(best_batched, time.perf_counter() - start)
        # bit-equality guard 2: a request served alone (a 1-row forward:
        # batch-invariant kernels, no padding) must reproduce the coalesced
        # bits
        solo = np.stack([server.predict("resnet18", requests[i])
                         for i in range(min(4, n))])
        stats = server.stats_report()["models"]["resnet18"]
        # one request in flight at a time: the server's per-request cost
        # over the bare batch-1 forward (queue hand-off, stack, scatter)
        lone_s = []
        for i in range(min(32, n)):
            start = time.perf_counter()
            server.predict("resnet18", requests[i])
            lone_s.append(time.perf_counter() - start)

    # bit-equality guard 1: the server's dynamic batches vs the library's
    # fixed-size batched inference over the identical stream
    # (the reference runs on srv_model: seq_model is pinned for batch-1
    # serving, while the claim is about the server's replicas)
    reference = predict_batched(srv_model, requests, batch_size=max_batch)

    return {
        "workload": {"model": "resnet18_mini", "input_shape": list(INPUT_SHAPE),
                     "num_requests": n, "k": p["k"],
                     "max_batch_size": max_batch,
                     "max_wait_ms": p["max_wait_ms"]},
        "sequential_s": best_seq,
        "sequential_sps": n / best_seq,
        "batched_s": best_batched,
        "batched_sps": n / best_batched,
        "speedup_batched_vs_sequential": best_seq / best_batched,
        # untracked: the lone request's p50 next to the bare batch-1 forward
        "batch1_forward_ms": best_seq / n * 1e3,
        "lone_request_p50_ms": quantile(lone_s, 0.5) * 1e3,
        "latency_ms_p50": stats["latency_ms"]["p50"],
        "latency_ms_p95": stats["latency_ms"]["p95"],
        "mean_batch_size": stats["mean_batch_size"],
        "batch_size_histogram": stats["batch_size_histogram"],
        "requests_completed": stats["requests_completed"],
        "batched_bit_identical_to_library": bool(
            np.array_equal(batched_out, reference)),
        "solo_bit_identical_to_batched": bool(
            np.array_equal(solo, batched_out[:solo.shape[0]])),
        "max_abs_diff_batched_vs_sequential": float(
            np.max(np.abs(batched_out - seq_out))),
    }


def run_fault_mode(smoke: bool = False) -> Dict[str, object]:
    """The same request stream under ~10% injected replica faults.

    Two replicas with the full failure-handling stack (retries, quarantine
    + re-warm, engine-fault degradation) serve the stream while the seeded
    chaos plan fires crashes, engine faults and delays.  Records throughput
    and p95 under fault along with the resolution census the chaos gate
    checks: every request resolves, every success is bit-identical to the
    clean reference.
    """
    p = QUICK if smoke else FULL
    n, max_batch = p["num_requests"], p["max_batch"]
    replicas = _compressed_replicas(p, count=3)
    ref_model, serve_replicas = replicas[0], replicas[1:]

    rng = np.random.default_rng(0)
    requests = rng.standard_normal((n, *INPUT_SHAPE))
    reference = predict_batched(ref_model, requests, batch_size=max_batch)

    policy = BatchPolicy(max_batch_size=max_batch, max_wait_ms=p["max_wait_ms"],
                         max_queue_size=max(2 * n, 64), overload="shed")
    fault_policy = FaultPolicy(max_retries=4, backoff_initial_ms=1.0,
                               quarantine_after=3, rewarm_after_ms=20.0)
    server = ModelServer()
    server.register("resnet18", serve_replicas, policy=policy,
                    fault_policy=fault_policy, input_shape=INPUT_SHAPE)
    plan = serving_chaos_plan(FAULT_RATE, seed=FAULT_SEED)
    ok = mismatched = typed_errors = unresolved = 0
    with plan.active(), server:
        start = time.perf_counter()
        handles = [server.submit("resnet18", row) for row in requests]
        for i, handle in enumerate(handles):
            try:
                out = handle.result(timeout=120.0)
            except ServingError:
                typed_errors += 1       # resolved: a typed error, not a hang
            except TimeoutError:
                unresolved += 1         # the wait itself timed out: a hang
            else:
                ok += 1
                if not np.array_equal(out, reference[i]):
                    mismatched += 1
        elapsed = time.perf_counter() - start
        stats = server.stats_report()["models"]["resnet18"]

    return {
        "fault_rate": FAULT_RATE,
        "fault_seed": FAULT_SEED,
        "num_requests": n,
        "throughput_rps": n / elapsed,
        "latency_ms_p50": stats["latency_ms"]["p50"],
        "latency_ms_p95": stats["latency_ms"]["p95"],
        "requests_ok": counts["ok"],
        "requests_typed_error": counts["typed_errors"],
        "requests_unresolved": counts["unresolved"],
        "successes_bit_identical": counts["mismatched"] == 0,
        "injections": sum(plan.summary()["injections"].values()),
        "faults": stats["faults"],
    }


def check_fault_report(report: Dict[str, object]) -> list:
    """The chaos gate: no hangs, bit-exact successes, faults actually fired."""
    errors = []
    if report["requests_unresolved"]:
        errors.append(f"{report['requests_unresolved']} requests never "
                      "resolved under fault injection (hang)")
    if not report["successes_bit_identical"]:
        errors.append("successful responses under fault injection diverge "
                      "from the clean reference bits")
    if not report["requests_ok"]:
        errors.append("no request succeeded under fault injection")
    if not report["injections"]:
        errors.append("the chaos plan injected nothing — the chaos gate "
                      "tested a fault-free run")
    return errors


#: process workers per sharded pool (and thread replicas in its baseline)
SHARDED_WORKERS = 2


def run_sharded(smoke: bool = False) -> Dict[str, object]:
    """Sharded process workers vs thread replicas over one shared model.

    The same compressed model is served two ways under the identical
    closed-loop stream: ``SHARDED_WORKERS`` thread replicas sharing state
    by reference, then a :class:`~repro.serve.sharded.ProcessReplicaPool`
    whose workers map one shared-memory arena zero-copy.  Alongside the
    closed-loop speedup the process tier serves an **open-loop Poisson
    trace** (seeded arrivals at ~70% of its measured throughput) for
    p50/p95/p99 under realistic arrival jitter, and reports per-worker RSS
    plus the arena accounting (``compressed_state_private_bytes`` must be
    zero — the zero-copy claim, gated in CI on any host).
    """
    from repro.core import cpu
    from repro.core.telemetry import quantile
    from repro.serve import ProcessReplicaPool

    p = QUICK if smoke else FULL
    n, max_batch = p["num_requests"], p["max_batch"]
    workers = SHARDED_WORKERS
    compressed, thread_replicas = _compress_model(p, count=workers)

    rng = np.random.default_rng(0)
    requests = rng.standard_normal((n, *INPUT_SHAPE))
    policy = BatchPolicy(max_batch_size=max_batch, max_wait_ms=p["max_wait_ms"],
                         max_queue_size=max(2 * n, 64), overload="shed")
    reference = predict_batched(thread_replicas[0], requests,
                                batch_size=max_batch)

    # -- thread-replica baseline (state deduplicated by reference)
    thread_server = ModelServer()
    thread_server.register("resnet18", thread_replicas, policy=policy,
                           input_shape=INPUT_SHAPE)
    with thread_server:
        thread_server.predict_many("resnet18", requests[:max_batch])  # warm
        best_thread = float("inf")
        for _ in range(p["repeats"]):
            start = time.perf_counter()
            thread_out = thread_server.predict_many("resnet18", requests)
            best_thread = min(best_thread, time.perf_counter() - start)

    # -- sharded process workers over the shared-memory arena
    pool = ProcessReplicaPool(
        compressed, ("factory", resnet18_mini, {"num_classes": 5, "seed": 1}),
        INPUT_SHAPE, workers=workers, mode="auto", max_batch_size=max_batch)
    try:
        process_server = ModelServer()
        pool.register_with(process_server, "resnet18", policy=policy)
        with process_server:
            process_server.predict_many("resnet18", requests[:max_batch])
            best_process = float("inf")
            for _ in range(p["repeats"]):
                start = time.perf_counter()
                process_out = process_server.predict_many("resnet18", requests)
                best_process = min(best_process,
                                   time.perf_counter() - start)

            # open-loop Poisson trace at ~70% of the measured throughput
            offered_rps = 0.7 * (n / best_process)
            gaps = np.random.default_rng(1).exponential(1.0 / offered_rps,
                                                        size=n)
            handles = []
            start = time.perf_counter()
            for i in range(n):
                time.sleep(gaps[i])
                handles.append(process_server.submit("resnet18", requests[i]))
            trace_out = np.stack([h.result(timeout=120.0) for h in handles])
            trace_elapsed = time.perf_counter() - start
            latencies = [h.latency_s for h in handles]
            info = pool.info()
    finally:
        pool.close()

    worker_reports = [w for w in info["workers"] if "error" not in w]
    return {
        "workload": {"model": "resnet18_mini",
                     "input_shape": list(INPUT_SHAPE),
                     "num_requests": n, "k": p["k"],
                     "max_batch_size": max_batch,
                     "max_wait_ms": p["max_wait_ms"]},
        "workers": workers,
        "cpu_count": cpu.available_cpus(),
        "smoke": bool(smoke),
        "thread_s": best_thread,
        "thread_sps": n / best_thread,
        "process_s": best_process,
        "process_sps": n / best_process,
        "speedup_process_vs_thread": best_thread / best_process,
        "process_bit_identical_to_thread": bool(
            np.array_equal(process_out, thread_out)),
        "process_bit_identical_to_library": bool(
            np.array_equal(process_out, reference)),
        "open_loop": {
            "offered_rps": offered_rps,
            "achieved_rps": n / trace_elapsed,
            "latency_ms": {"p50": quantile(latencies, 0.50) * 1e3,
                           "p95": quantile(latencies, 0.95) * 1e3,
                           "p99": quantile(latencies, 0.99) * 1e3},
            "bit_identical": bool(np.array_equal(trace_out, reference)),
        },
        "arena_nbytes": info["arena"]["nbytes"],
        "per_worker_rss_bytes": [w.get("rss_bytes") for w in worker_reports],
        "per_worker_arena_shared_bytes": [
            w.get("arena_shared_bytes") for w in worker_reports],
        "compressed_state_private_bytes": sum(
            w.get("private_state_bytes", 0) for w in worker_reports),
        "workers_reporting": len(worker_reports),
        "respawns": info["respawns"],
    }


def run_sharded_chaos(smoke: bool = False) -> Dict[str, object]:
    """SIGKILL a sharded worker mid-load: re-spawn, zero hangs, exact bits.

    One of the pool's worker processes is killed (the real signal, not an
    injected exception) while the request stream is in flight.  The gate
    demands every request resolves (success or typed error — never a hang),
    every success is bit-identical to the clean reference, and the dead
    worker was re-spawned and re-attached to the arena.
    """
    from repro.serve import ProcessReplicaPool

    p = QUICK if smoke else FULL
    n, max_batch = p["num_requests"], p["max_batch"]
    compressed, refs = _compress_model(p, count=1)

    rng = np.random.default_rng(0)
    requests = rng.standard_normal((n, *INPUT_SHAPE))
    reference = predict_batched(refs[0], requests, batch_size=max_batch)

    policy = BatchPolicy(max_batch_size=max_batch, max_wait_ms=p["max_wait_ms"],
                         max_queue_size=max(2 * n, 64), overload="shed")
    fault_policy = FaultPolicy(max_retries=4, backoff_initial_ms=1.0,
                               quarantine_after=3, rewarm_after_ms=20.0)
    pool = ProcessReplicaPool(
        compressed, ("factory", resnet18_mini, {"num_classes": 5, "seed": 1}),
        INPUT_SHAPE, workers=SHARDED_WORKERS, mode="auto",
        max_batch_size=max_batch)
    counts = dict(ok=0, mismatched=0, typed_errors=0, unresolved=0)

    def settle(i, handle):
        try:
            out = handle.result(timeout=120.0)
        except ServingError:
            counts["typed_errors"] += 1  # resolved: a typed error, not a hang
        except TimeoutError:
            counts["unresolved"] += 1    # the wait itself timed out: a hang
        else:
            counts["ok"] += 1
            if not np.array_equal(out, reference[i]):
                counts["mismatched"] += 1

    try:
        server = ModelServer()
        pool.register_with(server, "resnet18", policy=policy,
                           fault_policy=fault_policy)
        with server:
            server.predict_many("resnet18", requests[:2])  # warm
            start = time.perf_counter()
            handles = [server.submit("resnet18", row) for row in requests]
            # SIGKILL a worker once the first request has resolved, while
            # most of the stream is still queued or in flight (a fixed
            # sleep can land after a fast stream has drained)
            settle(0, handles[0])
            pool.replicas[0].kill()
            for i, handle in enumerate(handles[1:], start=1):
                settle(i, handle)
            elapsed = time.perf_counter() - start
            # attribute read only — pool.info() would itself re-spawn
            respawns = sum(r.respawns for r in pool.replicas)
    finally:
        pool.close()

    return {
        "num_requests": n,
        "workers": SHARDED_WORKERS,
        "throughput_rps": n / elapsed,
        "requests_ok": counts["ok"],
        "requests_typed_error": counts["typed_errors"],
        "requests_unresolved": counts["unresolved"],
        "successes_bit_identical": counts["mismatched"] == 0,
        "respawns": respawns,
    }


#: CI gates on the sharded tier: the closed-loop process-vs-thread speedup
#: is only meaningful with real parallelism, so it is gated on >= 2 CPUs;
#: bit-exactness and zero-copy accounting are gated unconditionally
MIN_SHARDED_SPEEDUP = 2.0
MIN_SHARDED_SPEEDUP_SMOKE = 1.3


def check_sharded_report(report: Dict[str, object]) -> list:
    """Gate one :func:`run_sharded` report; returns error strings."""
    errors = []
    if not report["process_bit_identical_to_thread"]:
        errors.append("process-worker outputs diverge from thread-replica "
                      "outputs on the same stream")
    if not report["process_bit_identical_to_library"]:
        errors.append("process-worker outputs diverge from predict_batched "
                      "on the same stream")
    if not report["open_loop"]["bit_identical"]:
        errors.append("open-loop trace outputs diverge from the reference")
    if not report["workers_reporting"]:
        errors.append("no sharded worker returned its memory report")
    if report["compressed_state_private_bytes"]:
        errors.append(f"{report['compressed_state_private_bytes']} bytes of "
                      "model state are private to workers — the zero-copy "
                      "shared-arena claim is violated")
    cpus = report.get("cpu_count") or 1
    if cpus >= 2:
        minimum = (MIN_SHARDED_SPEEDUP_SMOKE if report["smoke"]
                   else MIN_SHARDED_SPEEDUP)
        speedup = report["speedup_process_vs_thread"]
        if speedup < minimum:
            errors.append(f"sharded process serving is {speedup:.2f}x thread "
                          f"serving on a {cpus}-CPU host "
                          f"(minimum {minimum}x)")
    return errors


def check_sharded_chaos_report(report: Dict[str, object]) -> list:
    """The sharded chaos gate: re-spawn happened, no hangs, exact bits."""
    errors = []
    if report["requests_unresolved"]:
        errors.append(f"{report['requests_unresolved']} requests never "
                      "resolved after the worker SIGKILL (hang)")
    if not report["successes_bit_identical"]:
        errors.append("successful responses after the worker SIGKILL "
                      "diverge from the clean reference bits")
    if not report["requests_ok"]:
        errors.append("no request succeeded after the worker SIGKILL")
    if not report["respawns"]:
        errors.append("the SIGKILL'd worker was never re-spawned")
    return errors


#: CI gate: dynamic batching must beat sequential single-image serving
MIN_SPEEDUP = 1.5


def check_report(report: Dict[str, object]) -> list:
    """Gate conditions on one :func:`run` report; returns error strings."""
    errors = []
    if not report["batched_bit_identical_to_library"]:
        errors.append("dynamically batched outputs diverge from "
                      "predict_batched on the same stream")
    if not report["solo_bit_identical_to_batched"]:
        errors.append("a request served alone diverges from its coalesced "
                      "result (batch-invariant-kernel property violated)")
    speedup = report["speedup_batched_vs_sequential"]
    if speedup < MIN_SPEEDUP:
        errors.append(f"dynamic batching is {speedup:.2f}x sequential serving "
                      f"(minimum {MIN_SPEEDUP}x)")
    return errors


def main(argv=None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    quick = "--quick" in args
    chaos = "--chaos" in args
    sharded = "--sharded" in args
    output = None
    if "--output" in args:
        output = args[args.index("--output") + 1]
    report = run(smoke=quick)
    print(f"[perf] serving: dynamic batching {report['batched_sps']:.0f} req/s "
          f"vs sequential {report['sequential_sps']:.0f} req/s "
          f"({report['speedup_batched_vs_sequential']:.2f}x), "
          f"p95 {report['latency_ms_p95']:.1f} ms, "
          f"mean batch {report['mean_batch_size']:.1f}; lone request p50 "
          f"{report['lone_request_p50_ms']:.2f} ms vs batch-1 forward "
          f"{report['batch1_forward_ms']:.2f} ms")
    errors = check_report(report)
    if chaos:
        fault_report = run_fault_mode(smoke=quick)
        # nested under the serving section; compare_perf does not time
        # fault mode (retry/backoff sleeps dominate the wall time, making
        # it far too noisy to gate on)
        report["fault_mode"] = fault_report
        print(f"[perf] serving under {FAULT_RATE:.0%} faults: "
              f"{fault_report['throughput_rps']:.0f} req/s, "
              f"p95 {fault_report['latency_ms_p95']:.1f} ms, "
              f"{fault_report['requests_ok']} ok / "
              f"{fault_report['requests_typed_error']} typed errors / "
              f"{fault_report['requests_unresolved']} unresolved "
              f"({fault_report['injections']} injections)")
        errors += check_fault_report(fault_report)
    if sharded:
        sharded_report = run_sharded(smoke=quick)
        report["sharded"] = sharded_report
        open_loop = sharded_report["open_loop"]
        print(f"[perf] sharded serving: {sharded_report['workers']} process "
              f"workers {sharded_report['process_sps']:.0f} req/s vs thread "
              f"{sharded_report['thread_sps']:.0f} req/s "
              f"({sharded_report['speedup_process_vs_thread']:.2f}x on "
              f"{sharded_report['cpu_count']} CPUs); open-loop "
              f"p50 {open_loop['latency_ms']['p50']:.1f} / "
              f"p99 {open_loop['latency_ms']['p99']:.1f} ms at "
              f"{open_loop['offered_rps']:.0f} req/s offered; arena "
              f"{sharded_report['arena_nbytes'] / 1024:.0f} KiB shared, "
              f"{sharded_report['compressed_state_private_bytes']} B private")
        errors += check_sharded_report(sharded_report)
        if chaos:
            sharded_chaos = run_sharded_chaos(smoke=quick)
            sharded_report["chaos"] = sharded_chaos
            print(f"[perf] sharded chaos (worker SIGKILL mid-load): "
                  f"{sharded_chaos['requests_ok']} ok / "
                  f"{sharded_chaos['requests_typed_error']} typed errors / "
                  f"{sharded_chaos['requests_unresolved']} unresolved, "
                  f"{sharded_chaos['respawns']} re-spawn(s)")
            errors += check_sharded_chaos_report(sharded_chaos)
    if output:
        Path(output).write_text(
            json.dumps({"mode": "smoke" if quick else "full",
                        "serving": report}, indent=2, sort_keys=True) + "\n")
    for error in errors:
        print(f"[perf] ERROR: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
