"""Unit tests of the benchmark's statistics, trace and ladder rules."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from mvqbench.stats import (judge_rung, max_rps, poisson_schedule,  # noqa: E402
                            self_times, summarize, tail_level, union_length)


# -- the percentile rule: the highest level with >= 10 samples beyond it -------

@pytest.mark.parametrize("n, level", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_level_needs_ten_samples_beyond(n, level):
    assert tail_level(n) == level


def test_summarize_reports_tail_percentile_and_count():
    values = list(range(1, 1001))
    summary = summarize(values)
    assert summary["n"] == 1000
    assert summary["tail_pct"] == 99.0
    assert summary["tail"] == pytest.approx(np.percentile(values, 99))
    assert summary["p50"] == pytest.approx(500.5)
    # exactly ten samples lie beyond the reported tail
    assert sum(v > summary["tail"] for v in values) == 10


def test_summarize_falls_back_to_median_for_small_samples():
    summary = summarize([3.0, 1.0, 2.0], scale=1e3)
    assert summary == {"p50": 2000.0, "tail": 2000.0, "tail_pct": 50.0,
                       "max": 3000.0, "n": 3}


# -- self time with overlapping children ----------------------------------------

def _span(span_id, start, end, parent=None, pid=1, name="s"):
    return {"ph": "X", "name": name, "id": span_id, "parent": parent,
            "pid": pid, "ts": start, "dur": end - start}


def test_union_length_merges_overlaps():
    assert union_length([(1, 4), (3, 6), (8, 9), (2, 3)]) == 6
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_overlapping_children():
    records = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),      # overlaps the next child
        _span(3, 3.0, 6.0, parent=1),
        _span(4, 8.0, 12.0, parent=1),     # runs past the parent's end
        _span(5, 2.0, 9.0, parent=1, pid=2),  # another process's id space
        _span(6, 4.0, 5.0, parent=3),      # a grandchild is not subtracted twice
    ]
    selfs = self_times(records)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[6] == pytest.approx(1.0)


# -- the open-loop schedule ---------------------------------------------------------

def test_schedule_is_a_pure_function_of_seed_and_stream():
    first = poisson_schedule(7, 1, 200.0, 5.0)
    assert np.array_equal(first, poisson_schedule(7, 1, 200.0, 5.0))
    assert not np.array_equal(first, poisson_schedule(8, 1, 200.0, 5.0))
    assert not np.array_equal(first, poisson_schedule(7, 2, 200.0, 5.0))


def test_schedule_is_sorted_inside_the_window_at_the_rate():
    due = poisson_schedule(3, 1, 500.0, 4.0)
    assert np.all(np.diff(due) > 0)
    assert due[0] >= 0 and due[-1] < 4.0
    assert abs(len(due) - 2000) < 5 * math.sqrt(2000)


# -- the rate ladder: rungs, backlog and serve_max_rps -----------------------------

LIMIT = 0.25


def _rung(tail, drain=0.05, failed=0, n=100):
    return judge_rung([tail] * n, failed, drain, LIMIT)


def test_rung_passes_within_limit_without_backlog():
    verdict = _rung(0.1)
    assert verdict["passed"] and verdict["backlog_ok"]


def test_rung_fails_on_tail_backlog_or_failures():
    assert not _rung(0.3)["passed"]
    backlog = _rung(0.2, drain=0.4)
    assert not backlog["passed"] and not backlog["backlog_ok"]
    assert not _rung(0.1, failed=1)["passed"]
    assert not judge_rung([], 5, 0.0, LIMIT)["passed"]


def test_max_rps_is_the_last_rung_of_the_passing_prefix():
    rungs = [(200.0, _rung(0.1)), (250.0, _rung(0.125)), (315.0, _rung(0.5)),
             (400.0, _rung(0.1))]      # a later pass does not count
    assert max_rps(rungs) == 250.0


def test_max_rps_stops_at_a_backlog_failure():
    rungs = [(200.0, _rung(0.1)), (250.0, _rung(0.2, drain=1.0))]
    assert max_rps(rungs) == 200.0


def test_max_rps_when_every_rung_passes_or_the_first_fails():
    assert max_rps([(200.0, _rung(0.1)), (400.0, _rung(0.2))]) == 400.0
    assert max_rps([(200.0, _rung(0.5))]) == 0.0
    with pytest.raises(ValueError):
        max_rps([])


# -- BENCHMARK.json and the metric catalog agree --------------------------------

def test_catalog_covers_every_benchmark_metric():
    from mvqbench.run import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((ROOT / "mvqbench" / "catalog.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    assert workloads == set(WORKLOADS)
    assert set(catalog["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}
    assert set(catalog["per_layer"]) == {m["name"] for m in bench["per_layer"]}
    for entry in catalog["per_layer"].values():
        assert set(entry["on"]) <= workloads
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
