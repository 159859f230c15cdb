"""Perf suite runner: emits ``BENCH_perf.json`` for the PR's perf trajectory.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.run_perf [--smoke] [--output PATH]

``--smoke`` shrinks every workload so the suite finishes in a few seconds
(used by CI); the full run produces the numbers quoted in PR descriptions.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a plain script
    _root = Path(__file__).resolve().parents[2]
    for entry in (_root, _root / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

import numpy as np

from benchmarks.perf import (
    bench_clustering,
    bench_conv,
    bench_end_to_end,
    bench_explore,
    bench_inference,
    bench_pipeline,
    bench_serving,
    bench_telemetry,
    compare_perf,
)
from repro.core import cpu


def tracked_smoke_floor(paths) -> dict:
    """Elementwise minimum of the tracked metrics over smoke reports.

    The minimum — not the mean — is what gets committed as the gate's
    floor: smoke workloads are tiny and their ratios noisy, so a
    conservative floor over several runs is what keeps the 20% tolerance
    meaningful instead of flaky.  Raises ``ValueError`` for a non-smoke
    report so a mixed-up path fails before any benchmark runs.
    """
    floor: dict = {}
    for path in paths:
        smoke = json.loads(Path(path).read_text())
        if smoke.get("mode") != "smoke":
            raise ValueError(f"{path} is not a smoke-mode report "
                             f"(mode={smoke.get('mode')!r})")
        for key, value in compare_perf.tracked_metrics(smoke).items():
            floor[key] = min(value, floor.get(key, value))
    return floor


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="where to write the JSON report")
    parser.add_argument("--smoke", "--quick", dest="smoke",
                        action="store_true",
                        help="tiny workloads for CI smoke coverage "
                             "(--quick is an alias)")
    parser.add_argument("--smoke-report", nargs="+", default=None,
                        metavar="PATH",
                        help="smoke-mode report(s) whose tracked metrics get "
                             "embedded as tracked_smoke (lets compare_perf "
                             "gate CI smoke runs against a committed "
                             "full-mode baseline).  With several reports the "
                             "elementwise MINIMUM is embedded — a "
                             "conservative floor that absorbs the "
                             "run-to-run noise of tiny smoke workloads")
    args = parser.parse_args(argv)

    # validate the smoke reports up front: a typo'd path or wrong-mode file
    # must fail in milliseconds, not after the whole suite has run
    tracked_smoke = None
    if args.smoke_report:
        try:
            tracked_smoke = tracked_smoke_floor(args.smoke_report)
        except (OSError, ValueError) as error:
            print(f"[perf] ERROR: --smoke-report: {error}", file=sys.stderr)
            return 1

    suites = (
        ("clustering", bench_clustering.run),
        ("conv", bench_conv.run),
        ("end_to_end", bench_end_to_end.run),
        ("inference", bench_inference.run),
        ("pipeline", bench_pipeline.run),
        ("serving", lambda smoke: {
            **bench_serving.run(smoke=smoke),
            "sharded": bench_serving.run_sharded(smoke=smoke)}),
        ("explore", bench_explore.run),
        ("telemetry", bench_telemetry.run),
    )
    report = {
        "schema": 1,
        "mode": "smoke" if args.smoke else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    for name, runner in suites:
        start = time.perf_counter()
        report[name] = runner(smoke=args.smoke)
        print(f"[perf] {name}: done in {time.perf_counter() - start:.2f}s",
              flush=True)
    # the CPU budget the pools ran under, read after they ran so
    # granted_workers is populated
    report["host"] = {"cpu": cpu.policy()}

    # the regression gate's scale-free ratios, flattened for easy diffing;
    # --smoke-report additionally embeds the same metrics from smoke runs
    # so CI smoke jobs can gate against this (full-mode) baseline
    report["tracked"] = compare_perf.tracked_metrics(report)
    if tracked_smoke is not None:
        report["tracked_smoke"] = tracked_smoke

    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[perf] wrote {out}")

    cluster = report["clustering"]
    print(f"[perf] masked k-means speedup vs seed: "
          f"fp64 {cluster['speedup_fp64_vs_legacy']:.2f}x, "
          f"fp32 {cluster['speedup_fp32_vs_legacy']:.2f}x")
    e2e = report["end_to_end"]
    if not e2e["parallel_matches_sequential"]:
        print("[perf] ERROR: parallel compression diverged from sequential",
              file=sys.stderr)
        return 1

    inference = report["inference"]
    stream = inference["systolic_stream"]
    print(f"[perf] compressed-domain forward: "
          f"{inference['speedup_compressed_vs_reconstruct']:.2f}x vs "
          f"dense-reconstruct-then-conv (LUT max err "
          f"{inference['lut_max_abs_error_vs_baseline']:.2e}); "
          f"systolic stream "
          f"{stream['stream_speedup_vs_scalar']:.1f}x vs scalar tile loop")
    pipeline = report["pipeline"]
    print(f"[perf] pipeline cold {pipeline['cold_seconds']:.2f}s -> warm "
          f"{pipeline['warm_seconds']:.2f}s "
          f"({pipeline['warm_speedup']:.1f}x, cluster "
          f"{pipeline['warm_cluster_status']})")
    serving = report["serving"]
    print(f"[perf] serving: dynamic batching "
          f"{serving['speedup_batched_vs_sequential']:.2f}x vs sequential "
          f"({serving['batched_sps']:.0f} req/s, "
          f"mean batch {serving['mean_batch_size']:.1f}, "
          f"p95 {serving['latency_ms_p95']:.1f} ms); lone request p50 "
          f"{serving['lone_request_p50_ms']:.2f} ms vs batch-1 forward "
          f"{serving['batch1_forward_ms']:.2f} ms")
    sharded = serving["sharded"]
    print(f"[perf] sharded serving: {sharded['workers']} process workers "
          f"{sharded['speedup_process_vs_thread']:.2f}x thread replicas on "
          f"{sharded['cpu_count']} CPUs "
          f"({sharded['process_sps']:.0f} req/s, open-loop p99 "
          f"{sharded['open_loop']['latency_ms']['p99']:.1f} ms, "
          f"{sharded['compressed_state_private_bytes']} B private state)")
    explore = report["explore"]
    print(f"[perf] explore: {explore['candidates']}-candidate sweep, frontier "
          f"{explore['frontier_size']} points, parallel "
          f"{explore['speedup_parallel_vs_sequential']:.2f}x "
          f"({explore['workers_parallel']} workers), warm cache "
          f"{explore['cache_speedup']:.2f}x, "
          f"{explore['cold_cluster_layers_cached']} cluster results reused")
    tele = report["telemetry"]
    print(f"[perf] telemetry: disabled span point "
          f"{tele['disabled_ns_per_span']:.0f} ns "
          f"(budget {tele['disabled_budget_ns']:.0f} ns), enabled "
          f"{tele['enabled_ns_per_span']:.0f} ns, on/off ratio "
          f"{tele['overhead_ratio_on_vs_off']:.1f}x")

    errors = bench_inference.check_report(inference)
    errors += bench_pipeline.check_report(pipeline)
    errors += bench_serving.check_report(serving)
    errors += bench_serving.check_sharded_report(sharded)
    errors += bench_explore.check_report(explore)
    errors += bench_telemetry.check_report(tele)
    for error in errors:
        print(f"[perf] ERROR: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
