"""The evaluator's thread waves and the CPU budget they hold; the removed
worker-kind options stay removed."""

import json
import threading
from contextlib import contextmanager

import pytest

from repro.core import cpu
from repro.core.faults import FaultPlan, FaultRule
from repro.explore.cli import main
from repro.explore.evaluator import Evaluator
from repro.explore.runner import explore


def test_wave_threads_cluster_with_one_worker(tiny_space, tiny_pipeline,
                                              monkeypatch):
    """A pipeline asking for compressor workers must not start a pool
    inside each wave thread: the wave already holds the CPU budget."""
    grants = []
    region = cpu.parallel

    @contextmanager
    def spy(workers):
        with region(workers) as granted:
            grants.append((threading.current_thread() is
                           threading.main_thread(), workers, granted))
            yield granted

    monkeypatch.setattr(cpu, "available_cpus", lambda: 2)
    monkeypatch.setattr(cpu, "parallel", spy)
    space = tiny_space(pipeline={**tiny_pipeline, "workers": 2},
                       axes=[{"path": "base.k", "values": [6, 8]}])
    evaluator = Evaluator(space, workers=2)
    results = evaluator.evaluate(space.grid())
    assert all(result.ok for result in results), [r.error for r in results]
    assert [g for g in grants if g[0]] == [(True, 2, 2)]      # the wave
    # one compressor region per candidate, each granted a single worker
    assert [g for g in grants if not g[0]] == [(False, 2, 1)] * len(results)


def test_wave_asks_for_no_more_threads_than_groups(tiny_space, monkeypatch):
    requested = []
    region = cpu.parallel

    @contextmanager
    def spy(workers):
        if threading.current_thread() is threading.main_thread():
            requested.append(workers)
        with region(workers) as granted:
            yield granted

    monkeypatch.setattr(cpu, "available_cpus", lambda: 4)
    monkeypatch.setattr(cpu, "parallel", spy)
    # one model config, two accelerator variants: a single sharing group
    space = tiny_space(axes=[
        {"path": "accelerator.array_size", "values": [32, 64]}])
    evaluator = Evaluator(space, workers=4)
    results = evaluator.evaluate(space.grid())
    assert all(result.ok for result in results), [r.error for r in results]
    assert requested[0] == 1
    assert [r.shared_with for r in results] == [None, 0]


def test_two_wave_threads_match_one_on_a_disk_store(tiny_space, tmp_path):
    space = tiny_space(axes=[{"path": "base.k", "values": [6, 8]}])
    candidates = space.grid()
    reference = Evaluator(space, cache_dir=str(tmp_path / "one"),
                          workers=1).evaluate(candidates)

    evaluator = Evaluator(space, cache_dir=str(tmp_path / "two"), workers=2)
    evaluator.workers = 2  # past the CPU clamp on 1-CPU hosts
    results = evaluator.evaluate(candidates)

    stats = evaluator.stats()
    assert "backend" not in stats
    assert stats["workers"] == 2
    assert stats["evaluated"] == len(candidates)
    assert stats["cpu"]["cpus"] == cpu.available_cpus()
    assert any((tmp_path / "two").iterdir())     # the disk store was written
    for want, got in zip(reference, results):
        assert got.ok, got.error
        assert got.candidate.index == want.candidate.index
        assert got.objectives == want.objectives


def test_infeasible_candidate_counted_in_a_wave(tiny_space):
    space = tiny_space(axes=[
        {"path": "accelerator.array_size", "values": [64, -1]}])
    evaluator = Evaluator(space, workers=2)
    evaluator.workers = 2
    results = evaluator.evaluate(space.grid())
    assert {result.ok for result in results} == {True, False}
    assert evaluator.stats()["infeasible"] == 1
    bad = next(r for r in results if not r.ok)
    assert bad.error_type == "InfeasibleCandidate"


def test_wave_threads_see_the_callers_fault_plan(tiny_space):
    """The installed fault plan is process-wide: a candidate evaluated in
    a wave thread passes the same fault point as one on the caller's."""
    space = tiny_space(axes=[{"path": "base.k", "values": [6, 8]}])
    evaluator = Evaluator(space, workers=2, retries=0)
    evaluator.workers = 2
    plan = FaultPlan([FaultRule("explore.candidate.eval",
                                probability=1.0)], seed=0)
    with plan.active():
        results = evaluator.evaluate(space.grid())
    assert len(results) == 2
    assert not any(result.ok for result in results)
    assert {result.error_type for result in results} == {"InjectedFault"}
    assert evaluator.stats()["failed"] == 2


def test_run_summary_counts_workers(tmp_path, capsys, space):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(space.to_dict()))
    assert main(["run", str(space_path), "--workers", "1",
                 "--strategy", "random", "--budget", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 candidates evaluated" in out
    assert "(1 workers)" in out


def test_backend_options_are_gone(space):
    with pytest.raises(TypeError):
        Evaluator(space, backend="thread")
    with pytest.raises(TypeError):
        explore(space, backend="thread")


def test_backend_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--scenario", "quickstart-grid", "--backend", "thread"])
    assert exit_info.value.code == 2
    assert "--backend" in capsys.readouterr().err
