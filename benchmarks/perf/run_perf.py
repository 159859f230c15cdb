"""Perf suite runner: emits ``BENCH_perf.json`` for the PR's perf trajectory.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.run_perf [--smoke] [--output PATH]

``--smoke`` shrinks every workload so the suite finishes in a few seconds;
:mod:`benchmarks.perf.compare_perf` times it on a change and its parent.
The full run produces the numbers quoted in PR descriptions, and the
committed ``BENCH_perf.json`` records them as history.  The report's
``host`` section is :func:`repro.core.cpu.policy`, the host fingerprint.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a plain script
    _root = Path(__file__).resolve().parents[2]
    for entry in (_root, _root / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from benchmarks.perf import (
    bench_clustering,
    bench_conv,
    bench_end_to_end,
    bench_explore,
    bench_inference,
    bench_pipeline,
    bench_serving,
    bench_telemetry,
)
from repro.core import cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="where to write the JSON report")
    parser.add_argument("--smoke", "--quick", dest="smoke",
                        action="store_true",
                        help="tiny workloads for CI smoke coverage "
                             "(--quick is an alias)")
    args = parser.parse_args(argv)

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
    }
    for name, runner in suites:
        start = time.perf_counter()
        report[name] = runner(smoke=args.smoke)
        print(f"[perf] {name}: done in {time.perf_counter() - start:.2f}s",
              flush=True)
    # the host fingerprint and the CPU budget the pools ran under, read
    # after they ran so granted_workers is populated
    host = report["host"] = cpu.policy()

    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[perf] wrote {out}")

    print("[perf] host: " + ", ".join(f"{key}={value}"
                                      for key, value in host.items()))
    cluster = report["clustering"]
    print(f"[perf] masked k-means: fp64 {cluster['masked_fp64_s'] * 1e3:.2f} "
          f"ms, fp32 {cluster['masked_fp32_s'] * 1e3:.2f} ms")
    e2e = report["end_to_end"]
    if not e2e["parallel_matches_sequential"]:
        print("[perf] ERROR: parallel compression diverged from sequential",
              file=sys.stderr)
        return 1

    inference = report["inference"]
    stream = inference["systolic_stream"]
    print(f"[perf] cached dense forward: "
          f"{inference['speedup_compressed_vs_reconstruct']:.2f}x vs "
          f"re-decoding every weight on every call; lut/dense "
          f"{inference['compressed_lut_s'] / inference['compressed_auto_s']:.2f}x"
          f" (LUT max err "
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
          f"{tele['enabled_ns_per_span']:.0f} ns")

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
