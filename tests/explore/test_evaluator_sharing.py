"""Shared runs: accelerator-only variants of one model config reuse one
compress + serve_eval run and price only accel_eval.

Sharing is always on, so its safety net is byte-equality with evaluating
each candidate alone, under every strategy and worker count."""

import json

import pytest

from repro.core import telemetry
from repro.core.faults import FaultPlan, FaultRule
from repro.explore import get_space
from repro.explore.evaluator import Evaluator, _interleaved, _share_groups
from repro.explore.runner import explore
from repro.explore.strategies import get_strategy

#: two model configs x four accelerator configs: two groups of four
AXES = [
    {"path": "base.k", "values": [6, 8]},
    {"path": "accelerator.array_size", "values": [32, 64]},
    {"path": "accelerator.setting", "values": ["EWS-CMS", "EWS-CM"]},
]

#: (candidate spec, fidelity) -> its standalone outcome, shared by tests
_ALONE = {}


def _bytes(result):
    return (json.dumps(result.objectives, sort_keys=True),
            json.dumps(result.report["accel"], sort_keys=True))


def _alone(space, candidate, fidelity):
    """The candidate evaluated by itself in a fresh Evaluator (fresh store)."""
    key = (json.dumps(candidate.spec, sort_keys=True), fidelity)
    if key not in _ALONE:
        result = Evaluator(space, workers=1).evaluate_one(candidate, fidelity)
        assert result.ok, result.error
        _ALONE[key] = _bytes(result)
    return _ALONE[key]


def _recording(evaluator):
    """Wrap ``evaluator.evaluate`` to keep every (fidelity, results) call."""
    calls = []
    evaluate = evaluator.evaluate

    def spy(candidates, fidelity=1.0):
        results = evaluate(candidates, fidelity=fidelity)
        calls.append((fidelity, results))
        return results

    evaluator.evaluate = spy
    return calls


class TestSharedEqualsAlone:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("strategy,extra", [
        ("grid", {}),
        ("random", {"budget": 5, "seed": 3}),
        ("halving", {"budget": 6, "min_fidelity": 0.5}),
    ])
    def test_every_candidate_matches_its_solo_run(self, tiny_space, strategy,
                                                  extra, workers):
        space = tiny_space(axes=AXES, strategy=strategy, **extra)
        evaluator = Evaluator(space, workers=workers)
        evaluator.workers = workers     # past the CPU clamp on small hosts
        calls = _recording(evaluator)
        get_strategy(strategy).func(space, evaluator)
        if strategy == "halving":
            assert [f for f, _ in calls] == [0.5, 1.0]   # every rung checked
        shared = 0
        for fidelity, results in calls:
            for result in results:
                assert result.ok, result.error
                assert _bytes(result) == _alone(space, result.candidate,
                                                fidelity)
                shared += result.shared_with is not None
        assert shared >= 1, "the space must exercise sharing"
        assert evaluator.stats()["shared"] == shared

    def test_disk_store_wave_matches_solo_runs(self, tiny_space, tmp_path):
        space = tiny_space(axes=AXES)
        evaluator = Evaluator(space, cache_dir=str(tmp_path), workers=2)
        evaluator.workers = 2
        results = evaluator.evaluate(space.grid())
        assert evaluator.stats()["shared"] == 6      # 2 groups of 4
        for result in results:
            assert result.ok, result.error
            assert _bytes(result) == _alone(space, result.candidate, 1.0)
        assert [r.shared_with for r in results] == [None, 0, 0, 0,
                                                    None, 4, 4, 4]


class TestGroups:
    def test_accel_sweep_runs_serve_eval_once(self):
        with telemetry.tracing() as tracer:
            result = explore(get_space("accel-sweep"), workers=2)
        stages = [r["name"] for r in tracer.records()]
        assert stages.count("pipeline.stage.serve_eval") == 1
        assert stages.count("pipeline.stage.accel_eval") == 4
        assert result.stats["shared"] == 3
        primary, *members = result.results
        for member in members:
            assert member.shared_with == primary.candidate.index
            assert member.cluster_layers_fresh == 0
            assert member.cluster_layers_cached == (
                primary.cluster_layers_fresh + primary.cluster_layers_cached)
            # the primary's serve_eval, throughput measurement included
            assert member.report["serve"] == primary.report["serve"]
            assert member.report["accel"] != primary.report["accel"]
            assert member.record()["shared_with"] == primary.candidate.index
        assert primary.record()["shared_with"] is None

    def test_member_spans_are_siblings_of_the_primary(self, tiny_space):
        space = tiny_space(axes=[
            {"path": "accelerator.array_size", "values": [32, 64, 128]}])
        with telemetry.tracing() as tracer:
            Evaluator(space, workers=1).evaluate(space.grid())
        spans = [r for r in tracer.records()
                 if r["name"] == "explore.candidate"]
        args = [s["args"] for s in spans]
        assert [a["wave"] for a in args] == ["leader", "shared", "shared"]
        assert "shared_with" not in args[0]
        assert [a.get("shared_with") for a in args[1:]] == [0, 0]
        assert len({s["parent"] for s in spans}) == 1    # not nested

    def test_member_retries_its_own_fault(self, tiny_space):
        space = tiny_space(axes=[
            {"path": "accelerator.array_size", "values": [32, 64]}])
        # a zero delay absorbs the primary's visit; the member's first
        # attempt then faults once and its retry succeeds
        plan = FaultPlan([
            FaultRule("explore.candidate.eval", kind="delay",
                      max_injections=1),
            FaultRule("explore.candidate.eval", max_injections=1)])
        evaluator = Evaluator(space, workers=1, retries=2, backoff_ms=1.0)
        with plan.active():
            primary, member = evaluator.evaluate(space.grid())
        assert plan.summary()["visits"] == {"explore.candidate.eval": 3}
        assert primary.ok and primary.attempts == 1
        assert member.ok and member.attempts == 2
        assert member.shared_with == 0
        assert evaluator.stats()["retried"] == 1

    def test_failed_primary_promotes_the_next_member(self, tiny_space):
        space = tiny_space(axes=[
            {"path": "accelerator.array_size", "values": [32, 64, 128]}])
        # both attempts of candidate 0 fault; candidate 1 then runs in full
        plan = FaultPlan([FaultRule("explore.candidate.eval",
                                    max_injections=2)])
        evaluator = Evaluator(space, workers=1, retries=1, backoff_ms=1.0)
        with plan.active():
            failed, promoted, member = evaluator.evaluate(space.grid())
        assert not failed.ok and failed.error_type == "InjectedFault"
        assert promoted.ok and promoted.shared_with is None
        assert promoted.cluster_layers_fresh > 0
        assert member.ok and member.shared_with == 1
        assert _bytes(promoted) == _alone(space, promoted.candidate, 1.0)
        assert _bytes(member) == _alone(space, member.candidate, 1.0)


def test_groups_run_round_robin_over_clustering_bases(tiny_space):
    """Groups differing only in a stem override share every other layer;
    concurrent workers should start on different bases instead."""
    space = tiny_space(axes=[
        {"path": "base.k", "values": [6, 8]},
        {"pattern": "stem.*", "field": "n_keep", "values": [2, 4]},
        {"path": "accelerator.array_size", "values": [32, 64]}])
    groups = _share_groups(space.grid(), 1.0)
    assert [[c.index for c in g] for g in groups] == [
        [0, 1], [2, 3], [4, 5], [6, 7]]
    assert [[c.index for c in g] for g in _interleaved(groups)] == [
        [0, 1], [4, 5], [2, 3], [6, 7]]


class TestInfeasibleNeverLeads:
    def test_infeasible_first_candidate_clusters_each_layer_once(
            self, tiny_space):
        """An infeasible candidate first in its signature must not become
        the wave leader: its followers would race and all re-cluster."""
        space = tiny_space(axes=[
            {"path": "base.k", "values": [6, 8]},
            {"path": "accelerator.array_size", "values": [24, 64, 32]}])
        evaluator = Evaluator(space, workers=2)
        evaluator.workers = 2
        results = evaluator.evaluate(space.grid())
        assert [r.ok for r in results] == [False, True, True] * 2
        ok = [r for r in results if r.ok]
        layers = ok[0].cluster_layers_fresh + ok[0].cluster_layers_cached
        assert layers > 0
        # one run per k clusters every layer; the rest reuse it
        assert sum(r.cluster_layers_fresh for r in ok) == 2 * layers
        assert sum(r.cluster_layers_cached for r in ok) == 2 * layers
        assert evaluator.stats()["infeasible"] == 2
