"""Exploration runner: strategy × evaluator × frontier, end to end.

:func:`explore` is the programmatic entry point::

    from repro.explore import explore, get_space

    result = explore(get_space("accel-sweep"), workers=4)
    result.frontier.to_markdown()        # Table-3-style ablation table
    result.best_scenario()               # a servable Scenario of the winner

Every frontier point's record embeds the candidate's **full scenario spec**,
so re-running it through ``python -m repro.pipeline run point.json`` (or
:func:`repro.pipeline.run_scenario`) reproduces the exact accuracy/CR and
accelerator numbers — against a warm cache, without re-clustering anything.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.explore.evaluator import CandidateResult, Evaluator
from repro.explore.pareto import ParetoFrontier, render_csv, render_markdown
from repro.explore.space import SearchSpace
from repro.explore.strategies import get_strategy
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.scenarios import Scenario, register_scenario


@dataclass
class ExplorationResult:
    """Everything one exploration run produced."""

    space: SearchSpace
    strategy: str
    results: List[CandidateResult]           # full-fidelity evaluations
    frontier: ParetoFrontier
    history: List[Dict[str, Any]] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok_results(self) -> List[CandidateResult]:
        return [r for r in self.results if r.ok]

    @property
    def errors(self) -> List[CandidateResult]:
        return [r for r in self.results if not r.ok]

    # -- picking / serving the winner -------------------------------------------
    def best(self, weights: Optional[Mapping[str, float]] = None
             ) -> CandidateResult:
        return self.frontier.best(weights)

    def best_scenario(self, name: Optional[str] = None,
                      weights: Optional[Mapping[str, float]] = None) -> Scenario:
        """A :class:`Scenario` of the frontier's best point, ready for
        ``run_scenario`` or the ``repro.serve`` loader."""
        best = self.best(weights)
        return Scenario.from_dict({
            **best.candidate.scenario_spec(),
            "name": name or f"explore-{self.space.name}-best",
            "description": f"best frontier point of search space "
                           f"{self.space.name!r} (candidate "
                           f"{best.candidate.index}: "
                           f"{best.candidate.values_dict})",
        })

    def register_best(self, name: Optional[str] = None,
                      overwrite: bool = True) -> Scenario:
        return register_scenario(self.best_scenario(name), overwrite=overwrite)

    # -- reporting --------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The JSON-able run report (what ``--output`` writes)."""
        return {
            "schema": 1,
            "space": self.space.to_dict(),
            "strategy": self.strategy,
            "objectives": [{"name": o.name, "direction": o.direction}
                           for o in self.frontier.objectives],
            "stats": dict(self.stats),
            "history": list(self.history),
            "frontier": self.frontier.to_records(),
            "best": self.best().record() if len(self.frontier) else None,
            "candidates": [r.record() for r in self.results],
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.report(), indent=2, sort_keys=True) + "\n")

    def to_markdown(self) -> str:
        return self.frontier.to_markdown()

    def to_csv(self) -> str:
        return self.frontier.to_csv()


def explore(space: Union[SearchSpace, Mapping[str, Any]],
            strategy: Optional[str] = None,
            budget: Optional[int] = None,
            store: Optional[ArtifactStore] = None,
            cache_dir: Optional[str] = None,
            workers: Optional[int] = None,
            stages: Optional[Sequence[str]] = None,
            retries: int = 2,
            backoff_ms: float = 25.0) -> ExplorationResult:
    """Run one design-space exploration and return its Pareto frontier.

    ``strategy`` / ``budget`` override the space's own settings;
    ``store`` / ``cache_dir`` wire in a (shareable, warm-able) artifact
    cache; ``workers`` caps the evaluator's thread pool (see
    :class:`Evaluator`).  A candidate whose evaluation raises is retried up
    to ``retries`` times with exponential backoff (``backoff_ms`` initial),
    then recorded as a typed failure in ``stats["errors"]`` and excluded
    from the frontier — the sweep itself always completes.
    """
    if not isinstance(space, SearchSpace):
        space = SearchSpace.from_dict(space)
    overrides: Dict[str, Any] = {}
    if strategy is not None:
        overrides["strategy"] = strategy
    if budget is not None:
        overrides["budget"] = budget
    if overrides:
        space = SearchSpace.from_dict({**space.to_dict(), **overrides})

    info = get_strategy(space.strategy)
    evaluator = Evaluator(space, store=store, cache_dir=cache_dir,
                          workers=workers, stages=stages,
                          retries=retries, backoff_ms=backoff_ms)
    store_before = evaluator.store.stats()

    start = time.perf_counter()
    outcome = info.func(space, evaluator)
    seconds = time.perf_counter() - start

    frontier = ParetoFrontier(space.objectives)
    ok = [r for r in outcome.results if r.ok]
    frontier.update(ok)

    store_after = evaluator.store.stats()
    stats = {
        "seconds": seconds,
        "candidates": len(outcome.results),
        "frontier_size": len(frontier),
        "dominated": frontier.dominated_count,
        "errors": [
            {"index": r.candidate.index, "error": r.error,
             "error_type": r.error_type, "attempts": r.attempts}
            for r in outcome.results if not r.ok
        ],
        "cluster_layers_cached": sum(r.cluster_layers_cached for r in ok),
        "cluster_layers_fresh": sum(r.cluster_layers_fresh for r in ok),
        "store_hits": store_after["hits"] - store_before["hits"],
        "store_misses": store_after["misses"] - store_before["misses"],
        **evaluator.stats(),
    }
    return ExplorationResult(space=space, strategy=space.strategy,
                             results=outcome.results, frontier=frontier,
                             history=outcome.history, stats=stats)


# -- saved-report rendering (the `report` CLI subcommand) -----------------------

def render_report(report: Mapping[str, Any], fmt: str = "markdown") -> str:
    """Re-render a saved exploration report's frontier as a table."""
    objective_names = [o["name"] for o in report.get("objectives", [])]
    records = report.get("frontier", [])
    if fmt == "markdown":
        return render_markdown(records, objective_names)
    if fmt == "csv":
        return render_csv(records, objective_names)
    if fmt == "json":
        return json.dumps(records, indent=2, sort_keys=True)
    raise ValueError(f"unknown report format {fmt!r}; "
                     "expected markdown, csv or json")
