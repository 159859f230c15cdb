"""The perf-regression gate's paired rule (pure functions, no timing) and
its worktree handling on a throwaway repository."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.perf.compare_perf import (MIN_SLOWER_PAIRS, PAIRS, TRACKED,
                                          judge, tracked_metrics)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _runs(scale=1.0, pairs=PAIRS):
    """``pairs`` tracked-metric maps, times ``scale`` x a fixed base."""
    return [{metric: scale * (0.01 + 0.001 * i)
             for i, metric in enumerate(TRACKED)} for _ in range(pairs)]


class TestTrackedMetrics:
    def test_flattens_dotted_paths(self):
        report = {"inference": {"compressed_auto_s": 0.5,
                                "systolic_stream": {"stream_s": 0.25}},
                  "serving": {"sharded": {"process_s": 2.0}}}
        assert tracked_metrics(report) == {
            "inference.compressed_auto_s": 0.5,
            "inference.systolic_stream.stream_s": 0.25,
            "serving.sharded.process_s": 2.0}

    def test_missing_sections_are_skipped(self):
        assert tracked_metrics({"mode": "smoke"}) == {}

    def test_every_tracked_path_resolves_in_the_committed_history(self):
        import json

        report = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
        assert set(tracked_metrics(report)) == set(TRACKED)


class TestPairedRule:
    def test_identical_sides_pass(self):
        lines, errors = judge(_runs(), _runs())
        assert errors == []
        assert len(lines) == len(TRACKED)
        assert all(line.endswith(" ok") for line in lines)

    def test_thirty_percent_slower_in_every_pair_fails(self):
        _, errors = judge(_runs(), _runs(scale=1.3))
        assert len(errors) == len(TRACKED)
        assert "serving.batched_s is 30% slower" in "\n".join(errors)

    def test_one_slow_outlier_pair_passes(self):
        change = _runs()
        change[2] = {metric: 30 * value for metric, value in change[2].items()}
        assert judge(_runs(), change)[1] == []

    def test_slower_in_too_few_pairs_passes(self):
        # three of five pairs far slower: the median is over the tolerance
        # but the sign rule needs MIN_SLOWER_PAIRS
        change = _runs()
        for index in range(MIN_SLOWER_PAIRS - 1):
            change[index] = {m: 2 * v for m, v in change[index].items()}
        assert judge(_runs(), change)[1] == []

    def test_tolerance_is_the_median_bound(self):
        assert judge(_runs(), _runs(scale=1.3), tolerance=0.35)[1] == []

    def test_missing_on_the_change_side_fails_closed(self):
        change = _runs()
        del change[0]["explore.parallel_seconds"]
        _, errors = judge(_runs(), change)
        assert errors == ["explore.parallel_seconds missing from 1 of 5 "
                          "change reports"]

    def test_missing_on_the_parent_side_is_informational(self):
        parent = [{m: v for m, v in run.items()
                   if m != "serving.batched_s"} for run in _runs()]
        lines, errors = judge(parent, _runs(scale=5.0))
        assert [e for e in errors if "serving.batched_s" in e] == []
        assert any("serving.batched_s" in line and "not gated" in line
                   for line in lines)

    @settings(max_examples=60, deadline=None)
    @given(times=st.lists(st.floats(1e-6, 10.0), min_size=PAIRS,
                          max_size=PAIRS),
           scale=st.floats(1e-3, 1.0))
    def test_a_uniformly_faster_change_never_fails(self, times, scale):
        parent = [{metric: t for metric in TRACKED} for t in times]
        change = [{metric: scale * t for metric in TRACKED} for t in times]
        assert judge(parent, change)[1] == []


def _git(cwd, *args):
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True, check=True).stdout


def test_unknown_parent_exits_with_gits_message_and_leaves_no_worktree(
        tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "file.txt").write_text("x\n")
    _git(tmp_path, "add", "file.txt")
    _git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@example.com",
         "commit", "-q", "-m", "one")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.compare_perf",
         "--parent", "no-such-rev"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "no-such-rev" in proc.stderr
    assert "fatal:" in proc.stderr          # git's own message
    worktrees = _git(tmp_path, "worktree", "list", "--porcelain")
    assert worktrees.count("worktree ") == 1
