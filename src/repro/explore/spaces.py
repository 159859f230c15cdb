"""Built-in search spaces + the lazy ``explore-*`` scenario entries.

The registry makes exploration runs *data*, like the pipeline's scenario
registry: ``python -m repro.explore run --scenario NAME`` runs one of these
spaces, and for every fixed-model space importing this module also
registers an ``explore-<space>-best`` entry in the **pipeline** scenario
registry — a :class:`FrontierScenario` that resolves to the frontier's best
point on first use, so the model server can serve an auto-tuned deployment
by name::

    python -m repro.serve --scenario explore-accel-sweep-best

(:func:`repro.pipeline.scenarios.get_scenario` imports this module lazily
for any ``explore-*`` name, so no explicit import is needed.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.explore.space import EXPLORE_STAGES, SearchSpace
from repro.pipeline.config import PipelineConfig
from repro.pipeline.scenarios import Scenario, register_scenario

SPACES: Dict[str, SearchSpace] = {}


def register_space(space: SearchSpace, overwrite: bool = False) -> SearchSpace:
    if space.name in SPACES and not overwrite:
        raise ValueError(f"search space {space.name!r} is already registered")
    SPACES[space.name] = space
    return space


def get_space(name: str) -> SearchSpace:
    from repro.workloads.resolving import resolve

    return resolve(SPACES, name, "search space")


def list_spaces() -> List[SearchSpace]:
    return [SPACES[name] for name in sorted(SPACES)]


# ---------------------------------------------------------------------------
# frontier-best scenarios: lazily resolved pipeline-registry entries
# ---------------------------------------------------------------------------

_BEST_SPECS: Dict[str, dict] = {}
_BEST_LOCK = threading.Lock()


def _best_pipeline_dict(space_name: str) -> dict:
    """The best frontier point's pipeline dict, memoized per space.

    The first access runs the (deliberately tiny) search; later accesses —
    including re-runs through a shared artifact store — are free.
    """
    with _BEST_LOCK:
        if space_name not in _BEST_SPECS:
            from repro.explore.runner import explore

            result = explore(get_space(space_name))
            best = result.best()
            _BEST_SPECS[space_name] = best.candidate.scenario_spec()
        return _BEST_SPECS[space_name]


@dataclass(frozen=True)
class FrontierScenario(Scenario):
    """A scenario whose pipeline config is the best point of a search space.

    Only spaces with a fixed model/workload (no model axis) get one: the
    static ``model`` / ``workload`` / ``input_shape`` fields must describe
    every candidate, because loaders read them before the search resolves.
    """

    space: str = ""

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig.from_dict(
            dict(_best_pipeline_dict(self.space)["pipeline"]))


def _register_best_scenario(space: SearchSpace) -> Optional[Scenario]:
    # any axis touching the scenario itself (model, model_kwargs, workload,
    # input_shape — directly or via a coupled axis) makes the static fields
    # unreliable: the served architecture could differ from the searched
    # winner.  Such spaces get no lazy entry; use `run --register` instead.
    from repro.explore.space import SCENARIO_KEYS

    if any(axis.path == "" or (axis.path is not None
                               and axis.path.split(".")[0] in SCENARIO_KEYS)
           for axis in space.axes):
        return None
    return register_scenario(FrontierScenario(
        name=f"explore-{space.name}-best",
        description=f"auto-tuned: the Pareto-best point of search space "
                    f"{space.name!r} ({space.strategy} over "
                    f"{space.grid_size} candidates)",
        model=space.model,
        model_kwargs=dict(space.model_kwargs),
        pipeline=dict(space.pipeline),
        workload=space.workload,
        input_shape=space.input_shape,
        space=space.name,
    ), overwrite=True)


# ---------------------------------------------------------------------------
# built-in spaces (tiny models, smoke-sized budgets — seconds, not hours)
# ---------------------------------------------------------------------------

#: shared tiny-model pipeline settings (mirrors the pipeline registry's
#: smoke scenarios: small codebooks, few k-means iterations)
_TINY_PIPELINE = {
    "preset": "mvq",
    "base": {"k": 16, "max_kmeans_iterations": 6},
    "stages": list(EXPLORE_STAGES),
    "serve": {"batch_size": 4, "num_samples": 8},
    "data": {"num_samples": 64, "image_size": 16, "num_classes": 5},
    "accelerator": {"setting": "EWS-CMS", "array_size": 64},
}

register_space(SearchSpace.from_dict({
    "name": "quickstart-grid",
    "description": "Small grid over codebook size, stem pruning and array "
                   "size on the tiny ResNet-18 — the README quickstart.",
    "model": "resnet18",
    "model_kwargs": {"num_classes": 5, "seed": 1},
    "workload": "resnet18",
    "pipeline": _TINY_PIPELINE,
    "strategy": "grid",
    "axes": [
        {"path": "base.k", "values": [12, 24]},
        {"pattern": "stem.*", "field": "n_keep", "values": [2, 4]},
        {"path": "accelerator.array_size", "values": [32, 64]},
    ],
}))

register_space(SearchSpace.from_dict({
    "name": "accel-sweep",
    "description": "Fixed compression, accelerator-only sweep (hardware "
                   "setting x array size): every candidate shares the "
                   "first one's compress + serve_eval run.",
    "model": "resnet18",
    "model_kwargs": {"num_classes": 5, "seed": 1},
    "workload": "resnet18",
    "pipeline": _TINY_PIPELINE,
    "strategy": "grid",
    "axes": [
        {"path": "accelerator.setting", "values": ["EWS-CMS", "EWS-CM"]},
        {"path": "accelerator.array_size", "values": [32, 64]},
    ],
}))

register_space(SearchSpace.from_dict({
    "name": "table3-ablation",
    "description": "The paper's Table 3 ablation (cases A-D) as an automatic "
                   "frontier sweep: prune / masked-kmeans / mask-storage "
                   "toggles against accuracy, CR, latency and energy.",
    "model": "resnet18",
    "model_kwargs": {"num_classes": 5, "seed": 1},
    "workload": "resnet18",
    "pipeline": {**_TINY_PIPELINE, "preset": "mvq"},
    "strategy": "grid",
    "axes": [
        {"path": "preset", "name": "table3_case",
         "values": ["table3_case_a", "table3_case_b", "table3_case_c",
                    "table3_case_d"]},
    ],
}))

register_space(SearchSpace.from_dict({
    "name": "models-grid",
    "description": "Two models x per-layer codebook/pruning variants x two "
                   "accelerator configs — the acceptance-criteria grid "
                   "(16 candidates).",
    "model": "resnet18",
    "model_kwargs": {"num_classes": 5, "seed": 1},
    "workload": "resnet18",
    "pipeline": _TINY_PIPELINE,
    "strategy": "grid",
    "axes": [
        {"path": "", "name": "model",
         "values": [{"model": "resnet18", "workload": "resnet18"},
                    {"model": "mobilenet_v1", "workload": "mobilenet_v1"}]},
        {"pattern": "*", "field": "k", "values": [12, 24], "name": "k"},
        {"pattern": "*", "field": "n_keep", "values": [2, 4],
         "name": "n_keep"},
        {"path": "accelerator.array_size", "values": [32, 64]},
    ],
}))

register_space(SearchSpace.from_dict({
    "name": "halving-demo",
    "description": "Budgeted successive halving over codebook size, "
                   "codebook bits and pruning: dominated candidates are "
                   "pruned on cheap proxy evals before the full-fidelity "
                   "(fine-tuned) evaluation.",
    "model": "resnet18",
    "model_kwargs": {"num_classes": 5, "seed": 1},
    "workload": "resnet18",
    "pipeline": {**_TINY_PIPELINE,
                 "finetune": {"epochs": 1, "lr": 0.02, "codebook_lr": 3e-3}},
    "strategy": "halving",
    "budget": 6,
    "axes": [
        {"path": "base.k", "values": [8, 16, 24]},
        {"path": "base.codebook_bits", "values": [6, 8]},
        {"path": "base.n_keep", "values": [2, 4]},
    ],
}))

for _space in list_spaces():
    _register_best_scenario(_space)
