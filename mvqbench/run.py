"""Run one workload of the repository benchmark.

    python3 mvqbench/run.py --workload serve-open --seed 3 --seconds 10 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
``BENCHMARK.json`` names the workloads and metrics.  The run builds its
inputs from ``--seed``, sets up ``SETUP_REPEATS`` times (``setup_s`` is
the median), measures for about ``--seconds`` and checks every output.

Output: a detail line (host fingerprint, each timing as median plus the
highest percentile with ten samples beyond it and the sample count, the
workload's own named metrics, error rate, rate ladder), then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}`` — every
``end_to_end`` metric with ``--trace 0``; with ``--trace 1`` every
``per_layer`` metric (0 for a layer the workload does not exercise),
from a run that alternates traced and untraced slices (``TRACE_ORDER``)
and reports the difference of their median op latencies, with both
sample counts in the detail line, as ``trace.overhead_ms``.  Exits 1
when an output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from repro.core import telemetry  # noqa: E402

from mvqbench import host, probes  # noqa: E402
from mvqbench.common import Phase, median  # noqa: E402
from mvqbench.stats import summarize  # noqa: E402

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3

#: traced (T) and untraced (U) slices of a ``--trace 1`` run after its last
#: set-up; mirrored, so a steady drift in host speed cancels out of
#: ``trace.overhead_ms``
TRACE_ORDER = "TUUT"

WORKLOADS = {
    "compress-cold": ("mvqbench.compress_cold", "CompressCold"),
    "serve-open": ("mvqbench.serve_open", "ServeOpen"),
    "explore-warm": ("mvqbench.explore_warm", "ExploreWarm"),
    "infer-lut": ("mvqbench.infer_lut", "InferLut"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metrics(values, declared):
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared}


def _records(tracers) -> list:
    """Every tracer's records, span ids moved apart: each tracer numbers
    its spans from 1, and parents are looked up by id."""
    out, base = [], 0
    for tracer in tracers:
        top = 0
        for record in tracer.records():
            record = dict(record)
            for key in ("id", "parent"):
                if record.get(key) is not None:
                    top = max(top, record[key])
                    record[key] += base
            out.append(record)
        base += top
    return out


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts with the
    first spawned worker; left alone it outlives the run."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run(args: argparse.Namespace, bench: dict) -> tuple:
    module, cls = WORKLOADS[args.workload]
    workdir = ROOT / ".mvqbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    spool = workdir / "kmeans.jsonl"
    workload = getattr(importlib.import_module(module), cls)(args.seed, workdir)
    probing = contextlib.ExitStack()
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host.fingerprint()}
    try:
        setup_s, segments, tracers = [], [], []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            if args.trace and repeat == SETUP_REPEATS - 1:
                # before the last set-up, so serving workers trace too
                tracers.append(telemetry.enable(buffer_size=1 << 18))
                probing.enter_context(probes.installed(spool))
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
            if not args.trace:
                # a share of the run on every set-up: one set-up's luck
                # (worker placement, allocator state) is not the result
                segments.append(workload.measure(args.seconds / SETUP_REPEATS,
                                                 full=repeat == SETUP_REPEATS - 1))
        if args.trace:
            probes.drain_kmeans(tracers[-1], spool)
            telemetry.disable()
            probing.close()
            slices = {"T": [], "U": []}
            for mark in TRACE_ORDER:
                if mark == "T":
                    tracers.append(telemetry.enable(buffer_size=1 << 18))
                    probing.enter_context(probes.installed(spool))
                slices[mark].append(workload.measure(args.seconds / len(TRACE_ORDER),
                                                     full=False))
                if mark == "T":
                    workload.collect_trace()
                    probes.drain_kmeans(tracers[-1], spool)
                    telemetry.disable()
                    probing.close()
            phase, untraced = Phase.merged(slices["T"]), Phase.merged(slices["U"])
        else:
            phase = Phase.merged(segments)
        peak_rss = host.peak_rss_mb(workload.live_pids())
        if args.trace:
            records = _records(tracers)
            values = {m["name"]: 0.0 for m in bench["per_layer"]}
            layer = workload.layer_metrics(records, phase)
            layer["workloads.build_s"] = median(
                [r["dur"] for r in probes.spans(records, "workloads.build")])
            layer["trace.overhead_ms"] = (median(phase.latencies)
                                          - median(untraced.latencies)) * 1e3
            unknown = sorted(set(layer) - set(values))
            if unknown:
                raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
            values.update(layer)
            metrics = _metrics(values, bench["per_layer"])
            attempted = phase.attempted + untraced.attempted
            failed = phase.failed + untraced.failed
            # the overhead rests on these sample counts
            detail["trace_order"] = TRACE_ORDER
            detail["traced_ms"] = summarize(phase.latencies, 1e3)
            detail["untraced_ms"] = summarize(untraced.latencies, 1e3)
        else:
            rel_sse, ratio = workload.quality()
            timing = summarize(phase.latencies, 1e3)
            shares = [summarize(segment.latencies, 1e3) for segment in segments]
            timing["segment_tails"] = [share["tail"] for share in shares]
            # the median of each set-up's share's tail: one stall of the host
            # during one share does not decide the run's tail.  Shares too
            # short for a percentile above the median keep the whole run's
            # tail, which is then its median over every op
            tail = (median(timing["segment_tails"])
                    if all(share["tail_pct"] > 50.0 for share in shares)
                    else timing["tail"])
            values = {"setup_s": median(setup_s), "peak_rss_mb": peak_rss,
                      "latency_p50_ms": timing["p50"],
                      "latency_tail_ms": tail,
                      "throughput_per_s": workload.throughput(phase),
                      "compress_rel_sse": rel_sse, "compression_ratio": ratio}
            metrics = _metrics(values, bench["end_to_end"])
            attempted, failed = phase.attempted, phase.failed
            detail["timing_ms"] = timing
            detail["named"] = {name: {"value": value, "unit": unit}
                               for name, (value, unit) in workload.named(phase).items()}
            ladders = [seg["ladder"] for seg in phase.extra["segments"] if "ladder" in seg]
            if ladders:
                detail["ladders"] = ladders
        errors = workload.check()
        detail.update(setup_s=setup_s, attempted=attempted, failed=failed,
                      error_rate=failed / max(attempted, 1), checks=errors)
    finally:
        probing.close()
        telemetry.disable()
        try:
            workload.close()
        finally:
            _stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run may still use it
            workdir.parent.rmdir()
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    detail, result = run(args, bench)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
