"""Disabled-overhead gate for the tracing layer.

The whole point of leaving :mod:`repro.core.telemetry` span points compiled
into hot paths (batcher, worker forward, pipeline stages) is that a disabled
span point costs next to nothing: one module-global load, one ``is None``
check, and a shared no-op context manager — no allocation, no clock read.
This benchmark measures that cost directly and gates it:

* ``disabled_ns_per_span`` — cost of ``telemetry.span(...)`` as a context
  manager with tracing off.  Hard-bounded in :func:`check_report`.
* ``enabled_ns_per_span`` — the same span point with a live tracer
  (clock reads, record append).

``--quick`` runs a smaller iteration count for CI.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict

from repro.core import telemetry

FULL = dict(iterations=200_000, repeats=5)
SMOKE = dict(iterations=50_000, repeats=3)

#: a disabled span point must stay cheaper than this (generous: the
#: measured cost is ~100-300 ns on CI-class hardware, the bound only
#: exists to catch an accidental allocation / clock read on the off path)
DISABLED_BUDGET_NS = 2_000.0


def _ns_per_span(iterations: int, repeats: int) -> float:
    """Best-of-``repeats`` cost of one ``telemetry.span`` enter/exit."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            with telemetry.span("bench.telemetry.point"):
                pass
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / iterations)
    return best * 1e9


def _ns_per_counter(iterations: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            telemetry.counter_add("bench.telemetry.counter")
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / iterations)
    return best * 1e9


def run(smoke: bool = False) -> Dict[str, object]:
    p = SMOKE if smoke else FULL
    iterations, repeats = int(p["iterations"]), int(p["repeats"])

    # warm-up: touch the span point once in each state so bytecode and
    # attribute caches are hot before either variant is timed
    with telemetry.span("bench.telemetry.point"):
        pass

    assert not telemetry.enabled(), "tracing must be off for the benchmark"
    disabled_ns = _ns_per_span(iterations, repeats)
    disabled_counter_ns = _ns_per_counter(iterations, repeats)

    with telemetry.tracing(buffer_size=4096) as tracer:
        enabled_ns = _ns_per_span(iterations, repeats)
        enabled_counter_ns = _ns_per_counter(iterations, repeats)
        recorded = len(tracer.records())
        dropped = tracer.dropped

    return {
        "iterations": iterations,
        "repeats": repeats,
        "disabled_ns_per_span": disabled_ns,
        "enabled_ns_per_span": enabled_ns,
        "disabled_ns_per_counter": disabled_counter_ns,
        "enabled_ns_per_counter": enabled_counter_ns,
        "disabled_budget_ns": DISABLED_BUDGET_NS,
        "buffer_bounded": bool(recorded <= 4096),
        "spans_dropped_not_grown": int(dropped),
    }


def check_report(report: Dict[str, object]):
    """Hard failures for the perf runner's exit code."""
    errors = []
    disabled = float(report["disabled_ns_per_span"])
    if disabled > DISABLED_BUDGET_NS:
        errors.append(
            f"disabled span point costs {disabled:.0f} ns > "
            f"{DISABLED_BUDGET_NS:.0f} ns budget — the off fast path "
            "is allocating or reading the clock")
    if float(report["enabled_ns_per_span"]) <= 0:
        errors.append("enabled span cost measured as zero — timing broken")
    if not report["buffer_bounded"]:
        errors.append("trace buffer grew past its bound under load")
    return errors


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration count, hard gates only (CI)")
    parser.add_argument("--output", default=None,
                        help="write the JSON section to this path")
    args = parser.parse_args(argv)

    report = run(smoke=args.quick)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output:
        Path(args.output).write_text(
            json.dumps({"telemetry": report}, indent=2, sort_keys=True) + "\n")
    errors = check_report(report)
    for error in errors:
        print(f"[bench_telemetry] ERROR: {error}", file=sys.stderr)
    if not errors:
        print(f"[bench_telemetry] ok: disabled span "
              f"{report['disabled_ns_per_span']:.0f} ns "
              f"(budget {DISABLED_BUDGET_NS:.0f} ns), enabled "
              f"{report['enabled_ns_per_span']:.0f} ns")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
