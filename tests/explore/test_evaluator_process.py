"""Evaluator backend selection and the spawned-process evaluation path."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import cpu
from repro.core.faults import FaultPlan, FaultRule
from repro.explore.evaluator import Evaluator, _evaluate_candidate_process


class TestBackendResolution:
    def test_invalid_backend_rejected(self, space):
        with pytest.raises(ValueError):
            Evaluator(space, backend="fork")

    def test_thread_is_the_default(self, space, tmp_path):
        evaluator = Evaluator(space, cache_dir=str(tmp_path))
        assert evaluator.backend == "thread"
        assert evaluator._resolve_backend() == "thread"

    def test_process_needs_a_disk_store(self, space):
        evaluator = Evaluator(space, backend="process")
        evaluator.workers = 2
        # memory-only store: no cross-process cache channel -> threads
        assert evaluator._resolve_backend() == "thread"

    def test_process_needs_more_than_one_worker(self, space, tmp_path):
        evaluator = Evaluator(space, cache_dir=str(tmp_path),
                              backend="process")
        evaluator.workers = 1
        assert evaluator._resolve_backend() == "thread"

    def test_process_resolves_with_disk_and_workers(self, space, tmp_path):
        evaluator = Evaluator(space, cache_dir=str(tmp_path),
                              backend="process")
        evaluator.workers = 2
        assert evaluator._resolve_backend() == "process"

    def test_active_fault_plan_forces_threads(self, space, tmp_path):
        evaluator = Evaluator(space, cache_dir=str(tmp_path),
                              backend="process")
        evaluator.workers = 2
        plan = FaultPlan([FaultRule("explore.candidate.eval",
                                    probability=1.0)], seed=0)
        with plan.active():
            assert evaluator._resolve_backend() == "thread"
        assert evaluator._resolve_backend() == "process"

    def test_auto_respects_cpu_count_and_store(self, space, tmp_path,
                                               monkeypatch):
        evaluator = Evaluator(space, cache_dir=str(tmp_path), backend="auto")
        evaluator.workers = 2
        monkeypatch.setattr(cpu, "available_cpus", lambda: 4)
        assert evaluator._resolve_backend() == "process"
        monkeypatch.setattr(cpu, "available_cpus", lambda: 1)
        assert evaluator._resolve_backend() == "thread"
        no_disk = Evaluator(space, backend="auto")
        no_disk.workers = 2
        monkeypatch.setattr(cpu, "available_cpus", lambda: 4)
        assert no_disk._resolve_backend() == "thread"


class TestProcessEvaluation:
    def test_process_results_match_thread_results(self, tiny_space, tmp_path):
        space = tiny_space(axes=[{"path": "base.k", "values": [6, 8]}])
        candidates = space.grid()

        thread_ev = Evaluator(space, cache_dir=str(tmp_path / "thread"),
                              workers=2, backend="thread")
        reference = thread_ev.evaluate(candidates)

        process_ev = Evaluator(space, cache_dir=str(tmp_path / "process"),
                               workers=2, backend="process")
        process_ev.workers = 2  # past the CPU clamp on 1-CPU hosts
        results = process_ev.evaluate(candidates)

        assert process_ev.stats()["backend"] == "process"
        assert process_ev.stats()["evaluated"] == len(candidates)
        assert process_ev.stats()["cpu"]["cpus"] == cpu.available_cpus()
        for want, got in zip(reference, results):
            assert got.ok, got.error
            assert got.candidate.index == want.candidate.index
            for name, value in want.objectives.items():
                assert got.objectives[name] == value, name

    def test_infeasible_candidate_counted_from_worker(self, tiny_space,
                                                      tmp_path):
        space = tiny_space(axes=[
            {"path": "accelerator.array_size", "values": [64, -1]}])
        evaluator = Evaluator(space, cache_dir=str(tmp_path), workers=2,
                              backend="process")
        evaluator.workers = 2
        results = evaluator.evaluate(space.grid())
        by_ok = {result.ok for result in results}
        assert by_ok == {True, False}
        assert evaluator.stats()["infeasible"] == 1
        bad = next(r for r in results if not r.ok)
        assert bad.error_type == "InfeasibleCandidate"


def _grants_in_spawned_worker(payload):
    """Spawned-child body: evaluate one candidate the way a process wave
    does, on a 2-CPU budget, and report what every pool region granted."""
    grants = []
    region = cpu.parallel

    @contextmanager
    def spy(workers):
        with region(workers) as granted:
            grants.append((workers, granted))
            yield granted

    cpu.available_cpus = lambda: 2
    cpu.parallel = spy
    result, _ = _evaluate_candidate_process(payload)
    return result.ok, result.error, grants


def test_spawned_worker_clusters_with_one_worker(tiny_space, tiny_pipeline,
                                                 tmp_path):
    """A pipeline asking for compressor workers must not start a pool
    inside each spawned explore worker: the worker already holds its
    share of the CPU budget."""
    space = tiny_space(pipeline={**tiny_pipeline, "workers": 2},
                       axes=[{"path": "base.k", "values": [6]}])
    evaluator = Evaluator(space, cache_dir=str(tmp_path), workers=2,
                          backend="process")
    payload, = evaluator._process_payloads(space.grid(), 1.0, workers=2)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        ok, error, grants = pool.submit(_grants_in_spawned_worker,
                                        payload).result()
    assert ok, error
    assert grants and all(workers == 2 for workers, _ in grants), grants
    assert [granted for _, granted in grants] == [1] * len(grants)
