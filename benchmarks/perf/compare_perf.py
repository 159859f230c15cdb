"""Perf-regression gate: compare a fresh perf report against the baseline.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.compare_perf \
        --baseline BENCH_perf.json --current BENCH_perf_smoke.json

The tracked metrics are deliberately *scale-free ratios* (speedups), so
they are meaningful on any host; absolute wall times are never gated on.
Each tracked metric must stay within ``--tolerance`` (default 20%) of the
baseline value, or the gate exits non-zero.

Mode awareness: smoke-mode workloads are tiny, so their ratios differ from
full-mode ones — and are noisy.  A full-mode ``BENCH_perf.json`` written by
``run_perf --smoke-report s1.json s2.json ...`` embeds a ``tracked_smoke``
map holding the elementwise *minimum* of the tracked metrics over those
smoke runs (a conservative floor); when the current report's mode differs
from the baseline's, the gate compares against that map instead of the
full-mode numbers, and a baseline without the map fails the gate closed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):  # running as a plain script
    _root = Path(__file__).resolve().parents[2]
    for entry in (_root, _root / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

#: section -> dotted metric paths; every entry is a higher-is-better ratio
#: with real headroom over run-to-run noise.  (pipeline.warm_speedup is
#: deliberately absent: in smoke mode it is a ratio of two ~50 ms wall
#: times, and cache-hit correctness is already hard-gated by
#: bench_pipeline.check_report and the pipeline-smoke CI job.)
TRACKED: Dict[str, List[str]] = {
    "clustering": ["speedup_fp64_vs_legacy", "speedup_fp32_vs_legacy"],
    "inference": ["speedup_compressed_vs_reconstruct",
                  "systolic_stream.stream_speedup_vs_scalar"],
    # serving.fault_mode.* is deliberately untracked: under injected faults
    # the wall time is dominated by retry backoffs and re-warm sleeps, so
    # its throughput/p95 are noise; resolution correctness (no hangs,
    # bit-exact successes) is hard-gated by bench_serving.check_fault_report
    # in the chaos-smoke CI job instead
    # serving.sharded.speedup_process_vs_thread IS tracked: the committed
    # baseline floor comes from whatever host wrote it (possibly 1-CPU,
    # where the ratio sits near 1.0), so the 20% tolerance gates real
    # multi-process regressions without flaking on core count; the hard
    # >=1.3x smoke gate on >=2-CPU hosts lives in
    # bench_serving.check_sharded_report
    # serving.lone_request_p50_ms is deliberately untracked: it is an
    # absolute per-request time reported next to batch1_forward_ms to show
    # the server's own overhead, not a host-independent ratio
    "serving": ["speedup_batched_vs_sequential",
                "sharded.speedup_process_vs_thread"],
    # explore.cache_speedup is deliberately untracked: like
    # pipeline.warm_speedup it is a ratio of two sub-second smoke wall
    # times, and cache-hit correctness is already hard-gated by
    # bench_explore.check_report and the explore-smoke CI job
    "explore": ["speedup_parallel_vs_sequential"],
    # enabled/disabled span cost: a regression that bloats the disabled
    # fast path (the telemetry.disabled_overhead guarantee) shrinks this
    # ratio; the absolute ns budget is hard-gated by
    # bench_telemetry.check_report
    "telemetry": ["overhead_ratio_on_vs_off"],
}


def _resolve(section: Dict[str, Any], dotted: str) -> Optional[float]:
    value: Any = section
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return float(value)


def tracked_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """Flat ``section.metric.path -> value`` map of a report's tracked ratios."""
    flat: Dict[str, float] = {}
    for section, paths in TRACKED.items():
        data = report.get(section)
        if not isinstance(data, dict):
            continue
        for dotted in paths:
            value = _resolve(data, dotted)
            if value is not None:
                flat[f"{section}.{dotted}"] = value
    return flat


def compare(baseline: Dict[str, Any], current: Dict[str, Any],
            tolerance: float = 0.2,
            sections: Optional[Sequence[str]] = None) -> List[str]:
    """Regression errors (empty when the gate passes); prints a summary.

    ``sections`` restricts the comparison to those top-level report
    sections (e.g. ``["serving", "telemetry"]``) — for CI jobs that only
    regenerate part of the suite; a metric outside the listed sections is
    neither required of ``current`` nor gated.
    """
    current_tracked = tracked_metrics(current)
    if baseline.get("mode") == current.get("mode"):
        baseline_tracked = tracked_metrics(baseline)
        source = f"baseline ({baseline.get('mode')} mode)"
    else:
        baseline_tracked = baseline.get("tracked_smoke") or {}
        source = "baseline's embedded tracked_smoke map"
        if not baseline_tracked:
            # fail closed: a gate that silently has nothing to compare is
            # worse than a red build (regenerate the baseline with
            # `run_perf --smoke-report ...` to restore the map)
            return [f"mode mismatch ({baseline.get('mode')} baseline vs "
                    f"{current.get('mode')} current) and the baseline has no "
                    "tracked_smoke map — regenerate BENCH_perf.json with "
                    "run_perf --smoke-report so the gate has a floor"]

    errors: List[str] = []
    for key in sorted(set(current_tracked) | set(baseline_tracked)):
        if sections is not None and key.split(".", 1)[0] not in sections:
            continue
        have = current_tracked.get(key)
        want = baseline_tracked.get(key)
        if want is None:
            print(f"[compare] {key}: {have:.3f} (new metric, no baseline)")
            continue
        if have is None:
            errors.append(f"tracked metric {key} missing from the current report")
            continue
        floor = want * (1.0 - tolerance)
        status = "ok" if have >= floor else "REGRESSION"
        print(f"[compare] {key}: {have:.3f} vs {want:.3f} "
              f"(floor {floor:.3f}) {status}")
        if have < floor:
            errors.append(
                f"{key} regressed {100 * (1 - have / want):.1f}%: "
                f"{have:.3f} < {floor:.3f} (baseline {want:.3f} from {source})")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_perf.json",
                        help="committed perf report to gate against")
    parser.add_argument("--current", required=True,
                        help="freshly generated perf report")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional regression (default 0.2)")
    parser.add_argument("--sections", default=None,
                        help="comma-separated report sections to gate "
                             "(default: all tracked sections)")
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    sections = args.sections.split(",") if args.sections else None
    errors = compare(baseline, current, tolerance=args.tolerance,
                     sections=sections)
    for error in errors:
        print(f"[compare] ERROR: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
