"""Pipeline runner: executes named stages over one model, with caching.

:class:`Pipeline` is the orchestration entry point — it builds the
:class:`~repro.core.compressor.MVQCompressor` a :class:`PipelineConfig`
describes, wires in an :class:`~repro.pipeline.artifacts.ArtifactStore`
and runs the configured stage list.  Stages may be composed out of order:
every stage's missing prerequisites are pulled in through the explicit
producer chains of :mod:`repro.pipeline.stages` (and each stage runs at
most once per pipeline run), so e.g. ``stages=["serve_eval"]`` against a
warm cluster cache serves without re-clustering anything.

:func:`run_compression_stages` is the canonical four-stage composition
``group -> prune -> cluster -> quantize`` that
:meth:`MVQCompressor.compress` itself executes — the imperative API and the
declarative pipeline are the same code path, which is what keeps their
outputs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import telemetry
from repro.core.compressor import CompressedModel, MVQCompressor
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.config import CORE_STAGES, PipelineConfig
from repro.pipeline.stages import (
    PRODUCER_CHAINS,
    StageContext,
    get_stage,
)


def run_stage(ctx: StageContext, name: str) -> None:
    """Run one stage (once), ensuring its required artifacts exist first."""
    if name in ctx.completed:
        return
    stage = get_stage(name)
    for artifact in stage.requires:
        ensure_artifact(ctx, artifact)
    logged = len(ctx.events)
    with telemetry.timed_span(f"pipeline.stage.{name}") as sp:
        stage.func(ctx)
    ctx.completed.append(name)
    # one measurement drives both the trace and the stage report: every
    # event this stage logged gets the span's wall time, and the stage's
    # event detail rides along as span attributes
    for event in ctx.events[logged:]:
        event.setdefault("seconds", round(sp.duration_s, 6))
        for key, value in event.items():
            if key not in ("stage", "status") and isinstance(
                    value, (str, int, float, bool)):
                sp.set_attribute(key, value)


def ensure_artifact(ctx: StageContext, artifact: str) -> None:
    """Make ``artifact`` available by running its producer chain."""
    if artifact in ctx:
        return
    chain = PRODUCER_CHAINS.get(artifact)
    if chain is None:
        raise KeyError(f"no stage produces artifact {artifact!r}")
    for stage_name in chain:
        run_stage(ctx, stage_name)
    if artifact not in ctx:
        raise RuntimeError(
            f"producer chain {chain} did not yield artifact {artifact!r}")


def run_compression_stages(compressor: MVQCompressor, model,
                           store: Optional[ArtifactStore] = None,
                           events: Optional[List[Dict[str, Any]]] = None
                           ) -> CompressedModel:
    """The canonical ``group -> prune -> cluster -> quantize`` composition.

    This is what :meth:`MVQCompressor.compress` runs; ``store`` adds
    cluster-stage caching and ``events`` (a caller-owned list) receives the
    stage event log.
    """
    ctx = StageContext(model, compressor, store=store)
    if events is not None:
        ctx.events = events
    for name in CORE_STAGES:
        run_stage(ctx, name)
    return ctx["compressed"]


@dataclass
class PipelineResult:
    """Everything a pipeline run produced."""

    compressed: Optional[CompressedModel]
    events: List[Dict[str, Any]]
    artifacts: Dict[str, Any] = field(default_factory=dict)
    stages_run: Tuple[str, ...] = ()
    #: the live stage context — pass it back to :meth:`Pipeline.run` to
    #: continue the same run with more stages (no artifacts recomputed)
    context: Optional[Any] = field(default=None, repr=False, compare=False)

    def event_for(self, stage: str) -> Optional[Dict[str, Any]]:
        """The (last) event a stage logged, or ``None`` if it never ran."""
        for event in reversed(self.events):
            if event["stage"] == stage:
                return event
        return None

    def report(self) -> Dict[str, Any]:
        """JSON-able summary of the run."""
        summary: Dict[str, Any] = {
            "stages_run": list(self.stages_run),
            "events": self.events,
        }
        if self.compressed is not None:
            summary["compression_ratio"] = float(self.compressed.compression_ratio())
            summary["sparsity"] = float(self.compressed.sparsity())
            summary["layers"] = sorted(self.compressed.layers)
        for key in ("export", "serve_report", "accel_report", "finetune_report"):
            if key in self.artifacts:
                summary[key] = self.artifacts[key]
        return summary


class Pipeline:
    """Declarative, cached MVQ pipeline over one model."""

    def __init__(self, config: PipelineConfig,
                 store: Optional[ArtifactStore] = None,
                 workload: Optional[str] = None,
                 input_shape: Optional[Tuple[int, ...]] = None,
                 scenario: Optional[str] = None):
        self.config = config
        self.store = store if store is not None else ArtifactStore(config.cache_dir)
        self.workload = workload
        self.input_shape = input_shape
        self.scenario = scenario

    def context_for(self, model) -> StageContext:
        return StageContext(
            model,
            self.config.compressor_for(model),
            config=self.config,
            store=self.store,
            workload=self.workload,
            input_shape=self.input_shape,
            scenario=self.scenario,
        )

    def branch(self, context: StageContext,
               rerun: Sequence[str]) -> StageContext:
        """Continue another run's ``context`` under this pipeline's config.

        The branch holds the context's model, events and artifacts, minus
        what the ``rerun`` stages produced; passed to :meth:`run`, it runs
        those stages again under this config and reuses everything else.
        Sound only when the two configs differ in sections that just the
        ``rerun`` stages read, e.g. accelerator variants of one compressed
        model re-running ``accel_eval``.
        """
        rerun = set(rerun)
        dropped = {artifact for name in rerun
                   for artifact in get_stage(name).provides}
        branch = self.context_for(context.model)
        branch.events = [event for event in context.events
                         if event["stage"] not in rerun]
        branch.completed = [name for name in context.completed
                            if name not in rerun]
        branch.artifacts = {name: value for name, value
                            in context.artifacts.items() if name not in dropped}
        return branch

    def run(self, model, stages: Optional[Sequence[str]] = None,
            context: Optional[StageContext] = None) -> PipelineResult:
        """Execute the configured (or given) stage list over ``model``.

        Passing a previous result's ``context`` continues that run in place:
        artifacts it already produced are reused (stages run at most once per
        context), so e.g. ``run(model, stages=["finetune"], context=prev)``
        fine-tunes the already-clustered codebooks without any recompute.
        """
        names = tuple(stages if stages is not None else self.config.stages)
        for name in names:
            get_stage(name)  # validate the whole list before any work
        if context is not None and context.model is not model:
            raise ValueError(
                "context belongs to a different model; a continuation run "
                "must pass the same model object the context was built for")
        ctx = context if context is not None else self.context_for(model)
        for name in names:
            run_stage(ctx, name)
        return PipelineResult(
            compressed=ctx.artifacts.get("compressed"),
            events=ctx.events,
            artifacts=ctx.artifacts,
            stages_run=tuple(ctx.completed),
            context=ctx,
        )
