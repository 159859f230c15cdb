"""Parallel candidate evaluation through the repro.pipeline stages.

One :class:`Evaluator` owns a shared
:class:`~repro.pipeline.artifacts.ArtifactStore` and fans candidates across
a thread pool, the only pool kind it has: the threads share the store and
the caller's fault plan, and run inside the :mod:`repro.core.cpu` budget.
Every candidate runs the standard pipeline composition
(compress → serve_eval for accuracy/CR → accel_eval for latency/energy) and
comes back as a :class:`CandidateResult` holding its objective vector plus
the full run report.

Three things make a sweep cheap rather than embarrassingly expensive:

* **shared runs** — accuracy and compression ratio do not depend on the
  accelerator, so candidates whose (fidelity-scaled) specs differ only in
  ``pipeline.accelerator`` form one group, evaluated as one pool task.
  Its first feasible candidate, the *primary*, runs the full stage list;
  every other *member* continues the primary's stage context under its own
  config and runs only ``accel_eval`` (plus ``export``, which names its
  file after the candidate).  If the primary fails, the next member is
  promoted and runs in full.  The primary's run is dropped as soon as its
  group finishes.
* **cluster-cache reuse** — the pipeline's content-hash store keys
  per-layer clustering by (layer bytes, clustering config, precision), so
  candidates that share layer settings (e.g. per-layer overrides touching
  one stage, or a different ``codebook_bits``) skip re-clustering the rest.
* **signature waves** — groups whose primaries have an *identical*
  clustering signature are scheduled in two waves: one representative
  computes, then the rest run against the warm cache.  Without this,
  identical candidates racing in parallel would each miss and recompute;
  with it the cache hits are deterministic (and asserted in tests/CI).
  Within a wave, groups run round-robin over their clustering bases (the
  signature without per-layer overrides), so concurrent workers start on
  layers they do not share.

Infeasible accelerator combinations are rejected up front
(:meth:`Evaluator.validate`) with the :class:`ValueError` the
:class:`~repro.accelerator.config.AcceleratorConfig` constructor raises,
before grouping: no compression work is spent on a candidate that cannot
be priced, and one never becomes a primary or a wave leader.
"""

from __future__ import annotations

import copy
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import cpu, telemetry
from repro.core.compressor import layer_config_to_dict
from repro.core.faults import fault_point
from repro.explore.pareto import Objective, resolve_objectives
from repro.explore.space import Candidate, EXPLORE_STAGES, SearchSpace
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import Pipeline, PipelineResult
from repro.pipeline.scenarios import Scenario

#: LayerCompressionConfig fields the cluster stage never reads — candidates
#: differing only here share every cluster-cache entry
_NON_CLUSTER_FIELDS = ("codebook_bits", "weight_bits")

#: stages a shared member runs again on its primary's run: the one that
#: reads the accelerator section, and ``export``, named per candidate
_MEMBER_STAGES = ("accel_eval", "export")


@dataclass
class CandidateResult:
    """Outcome of evaluating one candidate (possibly at reduced fidelity)."""

    candidate: Candidate
    objectives: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    error_type: Optional[str] = None   # exception class name of the failure
    attempts: int = 1                  # evaluation attempts consumed
    fidelity: float = 1.0
    seconds: float = 0.0
    cluster_layers_cached: int = 0
    cluster_layers_fresh: int = 0
    #: index of the primary whose run this candidate continued (``None``
    #: when it ran its own full pipeline)
    shared_with: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def record(self) -> Dict[str, Any]:
        """JSON-able record; frontier points embed their full scenario spec
        so ``python -m repro.pipeline run point.json`` reproduces them."""
        return {
            "index": self.candidate.index,
            "values": self.candidate.values_dict,
            "objectives": dict(self.objectives),
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "fidelity": self.fidelity,
            "seconds": self.seconds,
            "cluster_layers_cached": self.cluster_layers_cached,
            "cluster_layers_fresh": self.cluster_layers_fresh,
            "shared_with": self.shared_with,
            "report": copy.deepcopy(self.report),
            "scenario": self.candidate.scenario_spec(),
        }


def extract_objectives(result: PipelineResult,
                       objectives: Sequence[Objective]) -> Dict[str, float]:
    """Pull the requested objective values out of a pipeline run."""
    serve = result.artifacts.get("serve_report") or {}
    accel = result.artifacts.get("accel_report") or {}
    available: Dict[str, Any] = {}
    if result.compressed is not None:
        available["compression_ratio"] = result.compressed.compression_ratio()
    if "val_accuracy" in serve:
        available["accuracy"] = serve["val_accuracy"]
    if "rel_err_vs_uncompressed" in serve:
        available["fidelity"] = -serve["rel_err_vs_uncompressed"]
    if "runtime_ms" in accel:
        available["latency_ms"] = accel["runtime_ms"]
    if "energy_mj_per_frame" in accel:
        available["energy_mj"] = accel["energy_mj_per_frame"]
    if "throughput_tops" in accel:
        available["throughput_tops"] = accel["throughput_tops"]
    if "efficiency_tops_w" in accel:
        available["efficiency_tops_w"] = accel["efficiency_tops_w"]

    extracted: Dict[str, float] = {}
    for objective in objectives:
        if objective.name not in available:
            raise KeyError(
                f"objective {objective.name!r} is unavailable for this "
                f"candidate — stages run: {list(result.stages_run)}; did the "
                "space's pipeline include serve_eval/accel_eval, a workload "
                "and (for accuracy) a data section?")
        extracted[objective.name] = float(available[objective.name])
    return extracted


def _signature_payload(spec: Mapping[str, Any]) -> Dict[str, Any]:
    config = PipelineConfig.from_dict(dict(spec.get("pipeline", {})))
    base = layer_config_to_dict(config.base)
    for name in _NON_CLUSTER_FIELDS:
        base.pop(name, None)
    overrides = []
    for override in config.overrides:
        fields = {k: v for k, v in dict(override.fields).items()
                  if k not in _NON_CLUSTER_FIELDS}
        if fields:
            overrides.append((override.pattern, sorted(fields.items())))
    return {
        "model": spec.get("model"),
        "model_kwargs": dict(spec.get("model_kwargs") or {}),
        "base": base,
        "overrides": overrides,
        "crosslayer": config.crosslayer,
        "include_linear": config.include_linear,
        "skip_layers": list(config.skip_layers),
    }


def clustering_signature(spec: Mapping[str, Any]) -> str:
    """A stable key of everything that determines a candidate's clustering.

    Two candidates with equal signatures produce byte-identical cluster
    inputs for *every* layer, so the second one is guaranteed all cache
    hits.  (Candidates with different signatures may still share individual
    layers — the content-hash store handles that finer granularity.)
    """
    return json.dumps(_signature_payload(spec), sort_keys=True, default=str)


def _interleaved(groups: List[List[Candidate]]) -> List[List[Candidate]]:
    """``groups`` reordered round-robin over their clustering bases.

    Groups of one base (equal signatures but for per-layer overrides)
    share the cluster results of every layer their overrides leave alone.
    Concurrent workers that start on different bases do not cluster those
    layers twice, and a base's later groups find them cached.
    """
    bases: Dict[str, List[List[Candidate]]] = {}
    for group in groups:
        payload = _signature_payload(group[0].spec)
        del payload["overrides"]
        key = json.dumps(payload, sort_keys=True, default=str)
        bases.setdefault(key, []).append(group)
    rounds = itertools.zip_longest(*bases.values())
    return [group for round_ in rounds for group in round_ if group is not None]


def _scaled_spec(spec: Dict[str, Any], fidelity: float) -> Dict[str, Any]:
    """The cheap-proxy variant of a candidate spec.

    Reduced fidelity scales the k-means iteration budget, drops the
    fine-tuning stage and caps the serve_eval sample count — enough signal
    to rank candidates, a fraction of the cost.
    """
    if fidelity >= 1.0:
        return spec
    spec = copy.deepcopy(spec)
    pipeline = spec.setdefault("pipeline", {})

    def scale(section: Dict[str, Any]) -> None:
        iterations = int(section.get("max_kmeans_iterations", 60))
        section["max_kmeans_iterations"] = max(2, round(iterations * fidelity))

    scale(pipeline.setdefault("base", {}))
    for override in pipeline.get("overrides", []):
        if "max_kmeans_iterations" in override.get("fields", {}):
            scale(override["fields"])
    pipeline["finetune"] = None
    if "stages" in pipeline:
        pipeline["stages"] = [s for s in pipeline["stages"] if s != "finetune"]
    serve = pipeline.setdefault("serve", {})
    serve["num_samples"] = min(int(serve.get("num_samples", 8)), 8)
    return spec


def _share_groups(candidates: Sequence[Candidate],
                  fidelity: float) -> List[List[Candidate]]:
    """Candidates grouped by everything but their accelerator section.

    The key is the candidate's spec as evaluated at ``fidelity`` without
    ``pipeline.accelerator``: group members compress and serve_eval
    identically.  Groups and their members keep candidate order.
    """
    groups: Dict[str, List[Candidate]] = {}
    for candidate in candidates:
        spec = _scaled_spec(candidate.scenario_spec(), fidelity)
        spec.get("pipeline", {}).pop("accelerator", None)
        key = json.dumps(spec, sort_keys=True, default=str)
        groups.setdefault(key, []).append(candidate)
    return list(groups.values())


class Evaluator:
    """Fans candidates of one :class:`SearchSpace` across worker threads.

    The threads share one in-process :class:`ArtifactStore` (memory-only,
    or disk-backed with ``cache_dir``) and the caller's
    :class:`~repro.core.faults.FaultPlan`.  Each wave runs inside the
    :func:`repro.core.cpu.parallel` budget, so a compressor pool inside a
    candidate gets one worker.
    """

    def __init__(self, space: SearchSpace,
                 store: Optional[ArtifactStore] = None,
                 cache_dir: Optional[str] = None,
                 workers: Optional[int] = None,
                 stages: Optional[Sequence[str]] = None,
                 retries: int = 2, backoff_ms: float = 25.0):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_ms < 0:
            raise ValueError("backoff_ms must be >= 0")
        self.space = space
        self.store = store if store is not None else ArtifactStore(cache_dir)
        cpus = cpu.available_cpus()
        requested = workers if workers is not None else cpus
        self.workers = max(1, min(int(requested), cpus))
        self.stages = tuple(stages) if stages is not None else None
        self.objectives = resolve_objectives(space.objectives)
        self.retries = int(retries)
        self.backoff_ms = float(backoff_ms)
        # counters are bumped from worker threads; += is not atomic
        self._counter_lock = threading.Lock()
        self.evaluated = 0
        self.infeasible = 0
        self.failed = 0
        self.retried = 0
        self.shared = 0

    def _count(self, counter: str, by: int = 1) -> None:
        with self._counter_lock:
            setattr(self, counter, getattr(self, counter) + by)

    # -- validation -------------------------------------------------------------
    def validate(self, candidate: Candidate) -> Optional[str]:
        """The up-front feasibility check; an error string or ``None``.

        Builds the candidate's :class:`AcceleratorConfig` and pipeline
        config eagerly so an invalid combination (array/buffer mismatch,
        bad layer fields) is rejected with a clear message before any
        clustering work is spent on it.
        """
        from repro.accelerator.config import config_from_spec

        spec = candidate.scenario_spec()
        try:
            config = PipelineConfig.from_dict(dict(spec.get("pipeline", {})))
            config_from_spec(dict(config.accelerator))
        except (ValueError, KeyError) as error:
            return f"infeasible candidate: {error}"
        return None

    # -- evaluation -------------------------------------------------------------
    def _stage_list(self, config: PipelineConfig) -> Tuple[str, ...]:
        if self.stages is not None:
            return self.stages
        if "stages" in (self.space.pipeline or {}):
            return tuple(config.stages)
        return EXPLORE_STAGES

    def evaluate_one(self, candidate: Candidate, fidelity: float = 1.0,
                     wave: str = "leader") -> CandidateResult:
        """Validate and evaluate one candidate through its full stage list."""
        result, _ = self._evaluate_traced(candidate, fidelity, wave,
                                          self.validate(candidate))
        return result

    def _evaluate_traced(self, candidate: Candidate, fidelity: float,
                         wave: str, infeasible: Optional[str],
                         primary: Optional[Tuple[int, PipelineResult]] = None
                         ) -> Tuple[CandidateResult, Optional[PipelineResult]]:
        """One candidate in its own ``explore.candidate`` span."""
        shared = {} if primary is None else {"shared_with": primary[0]}
        with telemetry.span("explore.candidate", candidate=candidate.index,
                            wave=wave, fidelity=fidelity,
                            proxy=fidelity < 1.0, **shared) as sp:
            result, run = self._evaluate_one(candidate, fidelity, infeasible,
                                             primary)
            sp.set_attribute("attempts", result.attempts)
            if result.error_type is not None:
                sp.set_attribute("error", result.error_type)
        return result, run

    def _evaluate_one(self, candidate: Candidate, fidelity: float,
                      infeasible: Optional[str],
                      primary: Optional[Tuple[int, PipelineResult]]
                      ) -> Tuple[CandidateResult, Optional[PipelineResult]]:
        """The result plus, on success, the run later group members may
        continue.  ``primary`` is the ``(index, run)`` this candidate
        continues instead of running its own full pipeline."""
        start = time.perf_counter()
        if infeasible is not None:
            self._count("infeasible")
            return CandidateResult(candidate=candidate, error=infeasible,
                                   error_type="InfeasibleCandidate",
                                   attempts=0, fidelity=fidelity,
                                   seconds=time.perf_counter() - start), None
        shared_with = None
        if primary is not None:
            shared_with = primary[0]
            self._count("shared")
        spec = _scaled_spec(candidate.scenario_spec(), fidelity)
        scenario = Scenario.from_dict({
            **spec,
            "name": f"{self.space.name}#{candidate.index}",
            "description": f"candidate {candidate.index} of search space "
                           f"{self.space.name}",
        })
        # a transiently-failing candidate (injected fault, flaky IO) is
        # retried with exponential backoff; past the budget it is recorded
        # as a typed failure and excluded — the sweep itself never dies
        attempts = 0
        while True:
            attempts += 1
            try:
                fault_point("explore.candidate.eval")
                config = scenario.pipeline_config()
                pipeline = Pipeline(config, store=self.store,
                                    workload=scenario.workload,
                                    input_shape=scenario.input_shape,
                                    scenario=scenario.name)
                stages = self._stage_list(config)
                if primary is None:
                    run = pipeline.run(scenario.build_model(), stages=stages)
                else:
                    context = pipeline.branch(primary[1].context,
                                              _MEMBER_STAGES)
                    run = pipeline.run(context.model, stages=stages,
                                       context=context)
                objectives = extract_objectives(run, self.objectives)
                break
            except Exception as exc:  # failure must not kill the sweep
                if attempts <= self.retries:
                    self._count("retried")
                    time.sleep(self.backoff_ms / 1e3
                               * 2.0 ** (attempts - 1))
                    continue
                self._count("failed")
                return CandidateResult(candidate=candidate,
                                       error=f"{type(exc).__name__}: {exc}",
                                       error_type=type(exc).__name__,
                                       attempts=attempts,
                                       fidelity=fidelity,
                                       seconds=time.perf_counter() - start,
                                       shared_with=shared_with), None

        cluster = run.event_for("cluster") or {}
        cached = len(cluster.get("layers_cached", []))
        fresh = len(cluster.get("layers_clustered", []))
        if primary is not None:      # every layer came with the primary's run
            cached, fresh = cached + fresh, 0
        serve = run.artifacts.get("serve_report") or {}
        accel = run.artifacts.get("accel_report") or {}
        report = {
            "compression_ratio": float(run.compressed.compression_ratio()),
            "sparsity": float(run.compressed.sparsity()),
            "stages_run": list(run.stages_run),
            "cluster_status": cluster.get("status"),
            "serve": {k: serve[k] for k in
                      ("val_accuracy", "rel_err_vs_uncompressed",
                       "outputs_match", "throughput_sps") if k in serve},
            "accel": {k: accel[k] for k in
                      ("workload", "setting", "array_size", "runtime_ms",
                       "energy_mj_per_frame", "efficiency_tops_w",
                       "throughput_tops", "utilization") if k in accel},
        }
        self._count("evaluated")
        return CandidateResult(
            candidate=candidate,
            objectives=objectives,
            report=report,
            attempts=attempts,
            fidelity=fidelity,
            seconds=time.perf_counter() - start,
            cluster_layers_cached=cached,
            cluster_layers_fresh=fresh,
            shared_with=shared_with,
        ), run

    def _evaluate_group(self, group: Sequence[Candidate], fidelity: float,
                        wave: str) -> List[CandidateResult]:
        """One sharing group, in order: the first candidate whose full run
        succeeds is the primary, every later one continues that run."""
        results = []
        primary: Optional[Tuple[int, PipelineResult]] = None
        for candidate in group:
            if primary is None:
                result, run = self._evaluate_traced(candidate, fidelity,
                                                    wave, None)
                if run is not None:
                    primary = (candidate.index, run)
            else:
                result, _ = self._evaluate_traced(candidate, fidelity,
                                                  "shared", None, primary)
            results.append(result)
        return results

    def evaluate(self, candidates: Sequence[Candidate],
                 fidelity: float = 1.0) -> List[CandidateResult]:
        """Evaluate all candidates: validated, grouped into shared runs and
        scheduled in signature waves (see module docs).

        Results come back in candidate order and are identical to
        evaluating each candidate alone — sharing and parallelism change
        wall time, not output.
        """
        results: Dict[int, CandidateResult] = {}
        feasible: List[Candidate] = []
        for candidate in candidates:
            error = self.validate(candidate)
            if error is None:
                feasible.append(candidate)
            else:
                results[candidate.index], _ = self._evaluate_traced(
                    candidate, fidelity, "infeasible", error)

        leaders: List[List[Candidate]] = []
        followers: List[List[Candidate]] = []
        seen = set()
        for group in _share_groups(feasible, fidelity):
            signature = clustering_signature(group[0].spec)
            (followers if signature in seen else leaders).append(group)
            seen.add(signature)

        for label, wave in (("leader", leaders), ("follower", followers)):
            if not wave:
                continue
            wave = _interleaved(wave)
            with cpu.parallel(min(self.workers, len(wave))) as granted:
                if granted > 1:
                    with ThreadPoolExecutor(max_workers=granted) as pool:
                        outcomes = list(pool.map(
                            lambda g: self._evaluate_group(g, fidelity, label),
                            wave))
                else:
                    outcomes = [self._evaluate_group(g, fidelity, label)
                                for g in wave]
            for group_results in outcomes:
                for result in group_results:
                    results[result.candidate.index] = result
        return [results[c.index] for c in candidates]

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "evaluated": self.evaluated,
            "infeasible": self.infeasible,
            "failed": self.failed,
            "retried": self.retried,
            "shared": self.shared,
            "store": self.store.stats(),
            "cpu": cpu.policy(),
        }

