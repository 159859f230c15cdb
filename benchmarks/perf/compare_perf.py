"""Perf-regression gate: the parent commit is the reference.

Usage::

    python -m benchmarks.perf.compare_perf --parent HEAD~1 [--tolerance 0.2]

Run from a checkout; the working tree is the *change* side.  The gate
checks ``--parent`` out as a detached ``git worktree`` in a temporary
directory, which is removed again on every exit path, and times both sides
on the same host in the same job.  Both run this checkout's
``benchmarks/perf`` harness (``run_perf --smoke``), each against its own
``src/``.  One warm-up run per side is thrown away; then :data:`PAIRS`
pairs follow, alternating which side goes first.

Every tracked metric is an absolute time of the code under test, lower is
better.  A metric regresses when the median of its per-pair ratios
(change / parent) is above ``1 + tolerance`` **and** the change is slower
in at least :data:`MIN_SLOWER_PAIRS` of the pairs: one slow pair (a cold
page, a scheduler hiccup) cannot turn the gate red, and a steady slowdown
cannot hide behind one fast pair.  A tracked metric missing from the
change's reports, or a side that crashes without writing a report, fails
the gate closed; a metric the parent does not report yet is shown but not
gated.

The hard gates (bit identity, chaos resolution, the LUT error bound, the
disabled-span budget and the benchmarks' own ratio floors) stay in the
benchmark scripts; this gate only answers "is the change slower than its
parent?".
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: dotted report paths of the tracked metrics: seconds, lower is better
TRACKED: Tuple[str, ...] = (
    "clustering.masked_fp64_s",
    "clustering.masked_fp32_s",
    "inference.compressed_auto_s",
    "inference.compressed_lut_s",
    "inference.systolic_stream.stream_s",
    "serving.batched_s",
    "serving.sharded.process_s",
    "explore.parallel_seconds",
)
#: timed parent/change pairs after the warm-up runs
PAIRS = 5
#: a regression must also be slower in at least this many pairs
MIN_SLOWER_PAIRS = 4
#: host fields the report prints and compares between the sides
FINGERPRINT = ("cpus", "machine", "python", "numpy", "blas_name",
               "blas_version", "blas_threads")

Run = Dict[str, float]


def tracked_metrics(report: Dict[str, Any]) -> Run:
    """``dotted path -> value`` of the tracked metrics a report has."""
    flat: Run = {}
    for dotted in TRACKED:
        value: Any = report
        for part in dotted.split("."):
            value = value.get(part) if isinstance(value, dict) else None
        if value is not None:
            flat[dotted] = float(value)
    return flat


def judge(parent: Sequence[Run], change: Sequence[Run],
          tolerance: float = 0.2) -> Tuple[List[str], List[str]]:
    """``(report lines, errors)`` of the paired rule; no errors = green.

    ``parent[i]`` and ``change[i]`` are the tracked metrics of pair ``i``.
    """
    lines: List[str] = []
    errors: List[str] = []
    for metric in TRACKED:
        new = [run.get(metric) for run in change]
        old = [run.get(metric) for run in parent]
        if None in new:
            errors.append(f"{metric} missing from {new.count(None)} of "
                          f"{len(new)} change reports")
            continue
        if None in old:
            lines.append(f"{metric}: change median "
                         f"{np.median(new) * 1e3:.3f} ms; the parent does "
                         "not report it, not gated")
            continue
        ratios = [c / p if p > 0 else (np.inf if c > 0 else 1.0)
                  for c, p in zip(new, old)]
        q1, ratio, q3 = np.percentile(ratios, [25, 50, 75])
        slower = sum(c > p for c, p in zip(new, old))
        regressed = ratio > 1 + tolerance and slower >= MIN_SLOWER_PAIRS
        lines.append(
            f"{metric}: parent {np.median(old) * 1e3:.3f} ms, change "
            f"{np.median(new) * 1e3:.3f} ms, change/parent {ratio:.3f} "
            f"(IQR {q1:.3f}-{q3:.3f}), slower in {slower}/{len(ratios)} "
            f"{'REGRESSION' if regressed else 'ok'}")
        if regressed:
            errors.append(
                f"{metric} is {100 * (ratio - 1):.0f}% slower than the "
                f"parent (median of {len(ratios)} pairs, slower in "
                f"{slower}; limit {100 * tolerance:.0f}% and "
                f"{MIN_SLOWER_PAIRS} pairs)")
    return lines, errors


def _git(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True)


def run_side(root: Path, harness: Path, output: Path) -> Optional[dict]:
    """One ``run_perf --smoke`` of ``root``'s ``src/`` under ``harness``'s
    benchmarks; its report, or ``None`` if it wrote none."""
    output.unlink(missing_ok=True)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(harness)]))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.run_perf", "--smoke",
         "--output", str(output)],
        cwd=output.parent, env=env, capture_output=True, text=True)
    if proc.returncode:
        # a hard gate inside run_perf (its own CI step enforces those) or
        # a crash; either way show why
        print(proc.stderr.strip()[-2000:], file=sys.stderr)
    try:
        return json.loads(output.read_text())
    except (OSError, ValueError):
        return None


def _fingerprint_lines(parent: dict, change: dict) -> List[str]:
    old = parent.get("host", {})
    new = change.get("host", {})
    lines = ["host: " + ", ".join(f"{key}={new.get(key)}"
                                  for key in FINGERPRINT)]
    lines += [f"parent fingerprint differs: {key}={old[key]} vs {new[key]}"
              for key in FINGERPRINT
              if key in old and key in new and old[key] != new[key]]
    return lines


def compare(change_root: Path, parent_root: Path, work: Path,
            tolerance: float) -> List[str]:
    """Run the warm-up and the pairs; returns the gate's errors."""
    roots = {"parent": parent_root, "change": change_root}
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    order = ["warm-up"] + [f"pair {i + 1}" for i in range(PAIRS)]
    for index, label in enumerate(order):
        for side in (("parent", "change") if index % 2 == 0
                     else ("change", "parent")):
            report = run_side(roots[side], change_root, work / f"{side}.json")
            if report is None:
                return [f"the {side} side ({roots[side]}) crashed without "
                        f"writing a report ({label})"]
            if label != "warm-up":
                runs[side].append(report)
            print(f"[compare] {label}: {side} done", flush=True)
    for line in _fingerprint_lines(runs["parent"][0], runs["change"][0]):
        print(f"[compare] {line}")
    lines, errors = judge([tracked_metrics(r) for r in runs["parent"]],
                          [tracked_metrics(r) for r in runs["change"]],
                          tolerance)
    for line in lines:
        print(f"[compare] {line}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True,
                        help="git revision the working tree is timed "
                             "against (e.g. HEAD~1)")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed median slowdown (default 0.2)")
    args = parser.parse_args(argv)

    top = _git(Path.cwd(), "rev-parse", "--show-toplevel")
    if top.returncode:
        print(f"[compare] ERROR: {top.stderr.strip()}", file=sys.stderr)
        return 2
    change_root = Path(top.stdout.strip())
    try:
        with tempfile.TemporaryDirectory(prefix="compare_perf-") as tmp:
            parent_root = Path(tmp) / "parent"
            added = _git(change_root, "worktree", "add", "--detach",
                         str(parent_root), args.parent)
            if added.returncode:
                print(f"[compare] ERROR: cannot check out --parent "
                      f"{args.parent}: {added.stderr.strip()}",
                      file=sys.stderr)
                return 2
            print(f"[compare] parent {args.parent} "
                  f"({_git(parent_root, 'rev-parse', 'HEAD').stdout.strip()})"
                  f" vs working tree {change_root}", flush=True)
            try:
                errors = compare(change_root, parent_root, Path(tmp),
                                 args.tolerance)
            finally:
                _git(change_root, "worktree", "remove", "--force",
                     str(parent_root))
    finally:
        _git(change_root, "worktree", "prune")
    for error in errors:
        print(f"[compare] ERROR: {error}", file=sys.stderr)
    if not errors:
        print(f"[compare] ok: no tracked metric is slower than the parent "
              f"beyond {100 * args.tolerance:.0f}%")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
