"""Pure helpers behind the benchmark's numbers.

* :func:`summarize` — a timing as its median plus the highest standard
  percentile that still has at least ten samples beyond it, with the count.
* :func:`self_times` — a span's duration minus the union of the intervals
  its children cover (children may overlap, e.g. thread-pool work).
* :func:`poisson_schedule` — the open-loop arrival schedule, a pure
  function of ``(seed, stream, rate, duration)``.
* :func:`judge_rung` / :func:`max_rps` — the rate-ladder rules of the
  open-loop serving workload.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.telemetry import quantile

#: percentile levels a tail may be reported at, lowest first
TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: samples that must lie beyond a reported percentile
BEYOND = 10


def tail_level(n: int) -> Optional[float]:
    """The highest :data:`TAIL_LEVELS` percentile with >= ``BEYOND`` of
    ``n`` samples beyond it, or ``None`` when even the median has fewer."""
    best = None
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= BEYOND - 1e-9:
            best = level
    return best


def summarize(values: Sequence[float], scale: float = 1.0) -> Dict[str, float]:
    """``{"p50", "tail", "tail_pct", "max", "n"}`` of a timing sample.

    ``tail`` is the :func:`tail_level` percentile.  Below 20 samples no
    percentile has ten beyond it; the tail then reads as the median
    (``tail_pct`` 50) rather than an extreme that one slow op decides.
    """
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    level = tail_level(n) or 50.0
    return {"p50": quantile(values, 0.5) * scale,
            "tail": quantile(values, level / 100.0) * scale,
            "tail_pct": level, "max": max(values) * scale, "n": n}


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records: Sequence[dict]) -> Dict[int, float]:
    """``{span id: self seconds}`` for every complete span in ``records``.

    A child is a record whose ``parent`` is the span's ``id`` in the same
    process; its interval is clipped to the parent's before the union is
    taken, so overlapping children are never subtracted twice.
    """
    spans = [r for r in records if r.get("ph") == "X" and r.get("id") is not None]
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for r in spans:
        if r.get("parent") is not None:
            children.setdefault((r["pid"], r["parent"]), []).append(
                (r["ts"], r["ts"] + r["dur"]))
    out: Dict[int, float] = {}
    for r in spans:
        start, end = r["ts"], r["ts"] + r["dur"]
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get((r["pid"], r["id"]), ())]
        out[r["id"]] = max(0.0, r["dur"] - union_length(clipped))
    return out


def poisson_schedule(seed: int, stream: int, rate: float,
                     duration: float) -> np.ndarray:
    """Due offsets (seconds from the phase start) of a Poisson arrival
    process at ``rate`` per second over ``duration`` seconds.

    ``stream`` separates the phases of one run (reference rate, each
    ladder rung) so each gets its own reproducible draw.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng([int(seed), int(stream)])
    expected = rate * duration
    gaps = rng.exponential(1.0 / rate, size=int(expected + 10 * math.sqrt(expected) + 10))
    due = np.cumsum(gaps)
    return due[due < duration]


def judge_rung(latencies: Sequence[float], failed: int, drain_s: float,
               limit_s: float) -> Dict[str, object]:
    """Whether one ladder rung meets the latency limit.

    A rung passes when nothing failed or was refused, its tail latency
    (:func:`summarize`) is within ``limit_s``, and the backlog left when
    sending stopped cleared within ``limit_s`` (``drain_s``) — a queue
    that grew during the rung takes longer than that to empty.
    """
    tail = summarize(latencies)["tail"] if latencies else math.inf
    backlog_ok = drain_s <= limit_s
    return {"tail_s": tail, "drain_s": drain_s, "failed": int(failed),
            "backlog_ok": backlog_ok,
            "passed": failed == 0 and tail <= limit_s and backlog_ok}


def max_rps(rungs: Sequence[Tuple[float, Dict[str, object]]]) -> float:
    """The highest rate of the passing prefix of an ascending ladder of
    judged rungs (0 when the first rung fails)."""
    if not rungs:
        raise ValueError("max_rps of an empty ladder")
    best = 0.0
    for rate, verdict in rungs:
        if not verdict["passed"]:
            break
        best = rate
    return best
