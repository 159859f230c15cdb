"""The pipeline's named, composable stages (the paper's Fig. 2 flow).

Each stage is a function over a :class:`StageContext`: it reads the
artifacts it requires, writes the artifacts it provides and appends one
event (``run`` / ``cached`` / ``skipped``) to the context's event log.  The
registry maps stage names to :class:`StageInfo`; the canonical compression
composition (``group -> prune -> cluster -> quantize``) is what
:meth:`repro.core.compressor.MVQCompressor.compress` executes, and the
deployment stages (``finetune``, ``apply``, ``export``, ``serve_eval``,
``accel_eval``) extend it through serving and the accelerator models.

Only clustering is worth caching: the ``cluster`` stage keys every layer's
result by a content hash of its pruned data, mask, the clustering-relevant
config fields and the precision policy, so a warm re-run skips the k-means
entirely while a change to e.g. ``k`` re-clusters exactly the affected
layers (a ``codebook_bits`` change, which only the ``quantize`` stage
reads, leaves the cluster cache warm).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import precision, telemetry
from repro.core.compressor import CompressedModel, LayerCompressionConfig, MVQCompressor
from repro.pipeline.artifacts import MISS, ArtifactStore, stable_hash


@dataclass
class StageInfo:
    """Registry entry: the stage function plus its artifact contract."""

    name: str
    func: Callable[["StageContext"], None]
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()
    description: str = ""


_REGISTRY: Dict[str, StageInfo] = {}

#: artifact name -> producer chain: the stages to run, in order, to make
#: the artifact available.  Lets a pipeline composed "out of order" (e.g.
#: ``stages=["serve_eval"]``) pull in its prerequisites explicitly instead
#: of recomputing them behind the caller's back — with a warm cluster cache
#: the chain is nearly free.
PRODUCER_CHAINS: Dict[str, Tuple[str, ...]] = {
    "targets": ("group",),
    "grouped": ("group",),
    "pruned": ("group", "prune"),
    "compressed": ("group", "prune", "cluster", "quantize"),
    "export": ("group", "prune", "cluster", "quantize", "export"),
    "serve_report": ("group", "prune", "cluster", "quantize", "serve_eval"),
    "accel_report": ("group", "prune", "cluster", "quantize", "accel_eval"),
}


def register_stage(name: str, requires: Tuple[str, ...] = (),
                   provides: Tuple[str, ...] = (), description: str = ""):
    """Decorator adding a stage function to the registry."""
    def decorator(func):
        _REGISTRY[name] = StageInfo(name, func, requires, provides, description)
        return func
    return decorator


def get_stage(name: str) -> StageInfo:
    from repro.workloads.resolving import resolve

    return resolve(_REGISTRY, name, "stage")


def available_stages() -> Dict[str, StageInfo]:
    return dict(_REGISTRY)


class StageContext:
    """Mutable state threaded through one pipeline run."""

    def __init__(self, model, compressor: MVQCompressor,
                 config=None, store: Optional[ArtifactStore] = None,
                 workload: Optional[str] = None,
                 input_shape: Optional[Tuple[int, ...]] = None,
                 scenario: Optional[str] = None):
        self.model = model
        self.compressor = compressor
        self.config = config                    # Optional[PipelineConfig]
        self.store = store
        self.workload = workload
        self.input_shape = input_shape
        self.scenario = scenario
        self.events: List[Dict[str, Any]] = []
        self.completed: List[str] = []
        self.artifacts: Dict[str, Any] = {}

    def __contains__(self, name: str) -> bool:
        return name in self.artifacts

    def __getitem__(self, name: str) -> Any:
        return self.artifacts[name]

    def __setitem__(self, name: str, value: Any) -> None:
        self.artifacts[name] = value

    def log(self, stage: str, status: str, **detail: Any) -> Dict[str, Any]:
        event = {"stage": stage, "status": status, **detail}
        self.events.append(event)
        return event

    def section(self, name: str) -> Dict[str, Any]:
        """One section of the PipelineConfig (empty dict when unset)."""
        if self.config is None:
            return {}
        return dict(getattr(self.config, name, None) or {})


# ---------------------------------------------------------------------------
# core compression stages (the canonical MVQCompressor.compress composition)
# ---------------------------------------------------------------------------

@register_stage("group", provides=("targets", "grouped"),
                 description="select compressible layers and group their weights "
                             "into subvectors")
def stage_group(ctx: StageContext) -> None:
    comp = ctx.compressor
    targets = comp.compressible_layers(ctx.model)
    if not targets:
        raise ValueError("no compressible layers found for the given configuration")
    grouped = {}
    for name, mod in targets:
        cfg = comp.layer_config(name)
        grouped[name] = comp.group_layer(mod.weight.value, cfg)
    ctx["targets"] = targets
    ctx["grouped"] = grouped
    ctx.log("group", "run", layers=len(targets))


@register_stage("prune", requires=("targets", "grouped"), provides=("pruned",),
                 description="N:M prune every grouped layer (mask + pruned data)")
def stage_prune(ctx: StageContext) -> None:
    comp = ctx.compressor
    pruned = {}
    for name, _ in ctx["targets"]:
        cfg = comp.layer_config(name)
        mask, data = comp.prune_grouped(ctx["grouped"][name], cfg)
        pruned[name] = (mask, data)
    ctx["pruned"] = pruned
    ctx.log("prune", "run", layers=len(pruned))


def _cluster_cache_key(pruned: np.ndarray, mask: np.ndarray,
                       cfg: LayerCompressionConfig, seed: int) -> str:
    """Content hash of everything the clustering kernel reads.

    ``d``/``strategy``/``prune`` parameters are not listed: they are already
    captured by the pruned data and mask bytes.  The compute dtype is
    included because it changes float summation order, hence results.  The
    distance block budget is not: it changes timing only (assignments are
    bit-identical for any block size), and keying on it would make a
    shared store miss between runs that set different budgets.
    """
    return stable_hash(
        "cluster", 1, pruned, mask,
        cfg.k, cfg.max_kmeans_iterations, bool(cfg.use_masked_kmeans),
        int(seed), str(precision.compute_dtype()),
    )


def _prepared_map(ctx: StageContext) -> Dict[str, tuple]:
    """(cfg, grouped, pruned, mask) per layer, the compressor's native form."""
    comp = ctx.compressor
    prepared = {}
    for name, _ in ctx["targets"]:
        mask, data = ctx["pruned"][name]
        prepared[name] = (comp.layer_config(name), ctx["grouped"][name], data, mask)
    return prepared


@register_stage("cluster", requires=("targets", "grouped", "pruned"),
                 provides=("compressed",),
                 description="(masked) k-means over every layer, with "
                             "content-hash caching of per-layer results")
def stage_cluster(ctx: StageContext) -> None:
    comp = ctx.compressor
    targets = ctx["targets"]
    prepared = _prepared_map(ctx)

    if comp.crosslayer:
        key = None
        result = MISS
        stacked = stacked_mask = None
        if ctx.store is not None:
            stacked, stacked_mask, _ = comp.stack_prepared(targets, prepared)
            key = _cluster_cache_key(stacked, stacked_mask, comp.config,
                                     comp.config.seed)
            result = ctx.store.get(key)
        cached = result is not MISS
        if not cached:
            result, _ = comp.cluster_crosslayer(targets, prepared,
                                                stacked=stacked,
                                                stacked_mask=stacked_mask)
            if ctx.store is not None:
                ctx.store.put(key, result)
        layers = comp.assemble_crosslayer(targets, prepared, result)
        ctx.log("cluster", "cached" if cached else "run", crosslayer=True)
    else:
        results: Dict[str, Any] = {}
        keys: Dict[str, str] = {}
        cached_names: List[str] = []
        fresh: List[str] = []
        for name, _ in targets:
            cfg = prepared[name][0]
            if ctx.store is None:
                fresh.append(name)
                continue
            keys[name] = _cluster_cache_key(
                prepared[name][2], prepared[name][3], cfg,
                comp._layer_seed(name, cfg))
            value = ctx.store.get(keys[name])
            if value is MISS:
                fresh.append(name)
            else:
                results[name] = value
                cached_names.append(name)
        if fresh:
            with telemetry.span("pipeline.cluster.kmeans",
                                layers=",".join(fresh)):
                new = comp.cluster_layerwise(targets, prepared, subset=fresh)
            results.update(new)
            if ctx.store is not None:
                for name in fresh:
                    ctx.store.put(keys[name], new[name])
        layers = comp.assemble_layerwise(targets, prepared, results)
        ctx.log("cluster", "run" if fresh else "cached",
                layers_clustered=fresh, layers_cached=cached_names)

    ctx["compressed"] = CompressedModel(ctx.model, layers,
                                        crosslayer=comp.crosslayer)


@register_stage("quantize", requires=("compressed",),
                 description="int8 (+LSQ) quantization of every distinct codebook")
def stage_quantize(ctx: StageContext) -> None:
    quantized = ctx.compressor.quantize_codebooks(ctx["compressed"])
    ctx.log("quantize", "run" if quantized else "skipped", codebooks=quantized)


# ---------------------------------------------------------------------------
# deployment stages
# ---------------------------------------------------------------------------

def _dataset_splits(ctx: StageContext):
    """Synthetic classification splits from the config's ``data`` section."""
    from repro.nn.data import SyntheticClassification, train_val_split

    spec = ctx.section("data")
    dataset = SyntheticClassification(
        num_samples=int(spec.get("num_samples", 96)),
        image_size=int(spec.get("image_size", 16)),
        num_classes=int(spec.get("num_classes", 5)),
        seed=int(spec.get("seed", 0)),
    )
    return train_val_split(dataset, val_fraction=float(spec.get("val_fraction", 0.25)))


@register_stage("finetune", requires=("compressed",),
                 description="codebook fine-tuning with masked gradients (Eq. 6)")
def stage_finetune(ctx: StageContext) -> None:
    spec = ctx.section("finetune")
    if not spec:
        ctx.log("finetune", "skipped", reason="no finetune section configured")
        return
    from repro.core.finetune import finetune_compressed_model
    from repro.nn import SGD, CrossEntropyLoss, evaluate_accuracy

    train_set, val_set = _dataset_splits(ctx)
    optimizer = SGD(ctx.model.parameters(), lr=float(spec.get("lr", 0.02)),
                    momentum=float(spec.get("momentum", 0.9)))
    finetune_compressed_model(
        ctx["compressed"], train_set, CrossEntropyLoss(), optimizer,
        epochs=int(spec.get("epochs", 2)),
        batch_size=int(spec.get("batch_size", 32)),
        codebook_lr=float(spec.get("codebook_lr", 3e-3)),
    )
    accuracy = evaluate_accuracy(ctx.model, val_set)
    ctx["finetune_report"] = {"val_accuracy": float(accuracy),
                              "epochs": int(spec.get("epochs", 2))}
    ctx.log("finetune", "run", val_accuracy=float(accuracy))


@register_stage("apply", requires=("compressed",),
                 description="write reconstructed dense weights back into the model")
def stage_apply(ctx: StageContext) -> None:
    ctx["compressed"].apply_to_model()
    ctx.log("apply", "run", layers=len(ctx["compressed"]))


@register_stage("export", requires=("compressed",), provides=("export",),
                 description="serialize (assignments, masks, codebooks) to .npz")
def stage_export(ctx: StageContext) -> None:
    from repro.core.serialization import (compressed_file_size_bytes,
                                          save_compressed_model)

    path = ctx.config.export_path if ctx.config is not None else None
    if path is None:
        base = (ctx.store.cache_dir if ctx.store is not None
                and ctx.store.cache_dir is not None else None)
        if base is None:
            # no export_path and no cache dir: write into a fresh temp dir
            # rather than silently dropping files into the process CWD
            import tempfile
            base = Path(tempfile.mkdtemp(prefix="repro-pipeline-"))
        path = str(Path(base) / f"{ctx.scenario or 'pipeline'}_compressed.npz")
    compressed = ctx["compressed"]
    save_compressed_model(compressed, path)
    ctx["export"] = {
        "path": str(path),
        "file_size_bytes": int(compressed_file_size_bytes(path)),
        "compression_ratio": float(compressed.compression_ratio()),
        "sparsity": float(compressed.sparsity()),
        "layers": len(compressed),
    }
    ctx.log("export", "run", path=str(path))


@register_stage("serve_eval", requires=("compressed",), provides=("serve_report",),
                 description="swap in compressed-domain modules and check batched "
                             "serving against the dense-reconstructed reference")
def stage_serve_eval(ctx: StageContext) -> None:
    from repro.nn.compressed import compressed_serving
    from repro.nn.serve import predict_batched

    spec = ctx.section("serve")
    batch_size = int(spec.get("batch_size", 8))
    num_samples = int(spec.get("num_samples", 2 * batch_size))
    mode = spec.get("mode", "auto")
    input_shape = tuple(spec.get("input_shape", ctx.input_shape or (3, 16, 16)))

    rng = np.random.default_rng(int(spec.get("seed", 0)))
    inputs = rng.standard_normal((num_samples, *input_shape))

    compressed = ctx["compressed"]
    # outputs of the model's current dense weights — the uncompressed network
    # (post-finetune when that stage ran) the compression distorts away from
    original = predict_batched(ctx.model, inputs, batch_size=batch_size)
    # build the dense-reconstructed reference without mutating the model:
    # apply_to_model() overwrites the live weights, which would invalidate
    # the content-hash cluster cache on the next run of the same model
    modules = dict(ctx.model.named_modules())
    saved_weights = {name: modules[name].weight.value.copy()
                     for name in compressed.layers}
    compressed.apply_to_model()
    reference = predict_batched(ctx.model, inputs, batch_size=batch_size)
    for name, weight in saved_weights.items():
        modules[name].weight.copy_(weight)

    with compressed_serving(ctx.model, compressed, mode=mode) as swapped:
        # timed_span measures whether tracing is on or off, so the stage
        # report's throughput and the trace always agree on this duration
        with telemetry.timed_span("pipeline.serve_eval.forward",
                                  batch_size=batch_size,
                                  num_samples=num_samples) as sp:
            outputs = predict_batched(ctx.model, inputs, batch_size=batch_size)
        seconds = sp.duration_s
        # execution mode per layer (``auto`` runs dense) and the footprint
        # of any LUT routing tables that were built
        engine_modes: Dict[str, int] = {}
        lut_table_bytes = 0
        for module in swapped.values():
            stats = module.engine.serving_stats()
            resolved = stats.get("last_mode") or stats.get("mode")
            engine_modes[resolved] = engine_modes.get(resolved, 0) + 1
            lut_table_bytes += int(stats.get("lut_table_bytes", 0))
        # top-1 accuracy of the compressed model on the config's synthetic
        # validation split — the accuracy objective of repro.explore.  Only
        # measured when a ``data`` section is configured: its shape must
        # match the model, which the serve inputs alone cannot guarantee.
        val_accuracy = None
        if ctx.section("data"):
            from repro.nn import evaluate_accuracy
            _, val_set = _dataset_splits(ctx)
            val_accuracy = float(evaluate_accuracy(ctx.model, val_set,
                                                   batch_size=batch_size))

    max_abs_diff = float(np.max(np.abs(outputs - reference)))
    scale = float(np.max(np.abs(reference))) or 1.0
    rel_err = (float(np.linalg.norm(outputs - original))
               / max(float(np.linalg.norm(original)), 1e-12))
    # deviation from the dense-reconstructed reference (float summation
    # order only)
    rel_err_vs_exact = (float(np.linalg.norm(outputs - reference))
                        / max(float(np.linalg.norm(reference)), 1e-12))
    ctx["serve_report"] = {
        "batch_size": batch_size,
        "num_samples": num_samples,
        "mode": mode,
        "engine_modes": engine_modes,
        "lut_table_bytes": int(lut_table_bytes),
        "seconds": float(seconds),
        "throughput_sps": float(num_samples / max(seconds, 1e-12)),
        "max_abs_diff": max_abs_diff,
        "outputs_match": bool(max_abs_diff <= 1e-6 * scale + 1e-9),
        "rel_err_vs_uncompressed": rel_err,
        "rel_err_vs_exact": rel_err_vs_exact,
    }
    if val_accuracy is not None:
        ctx["serve_report"]["val_accuracy"] = val_accuracy
    ctx.log("serve_eval", "run", max_abs_diff=max_abs_diff,
            outputs_match=ctx["serve_report"]["outputs_match"],
            engine_modes=engine_modes)


@register_stage("accel_eval", requires=("compressed",), provides=("accel_report",),
                 description="performance/energy evaluation on the accelerator "
                             "models for the scenario's workload")
def stage_accel_eval(ctx: StageContext) -> None:
    from repro.accelerator.comparison import mvq_rows
    from repro.accelerator.config import HardwareSetting, config_from_spec
    from repro.accelerator.performance import PerformanceModel
    from repro.workloads import shape_factory

    spec = ctx.section("accelerator")
    workload_name = spec.get("workload", ctx.workload)
    if workload_name is None:
        ctx.log("accel_eval", "skipped",
                reason="no accelerator workload configured")
        return

    setting = HardwareSetting(spec.get("setting", "EWS-CMS"))
    array_size = int(spec.get("array_size", 64))
    hw = config_from_spec(spec)
    derived_vq = False
    if spec.get("derive_vq", True) and ctx.compressor is not None:
        # project the compression config onto the hardware parameters when
        # the array constraints allow it; otherwise keep the paper's setting
        base = ctx.compressor.config
        try:
            from dataclasses import replace
            hw = replace(hw, codebook_size=base.k, subvector_length=base.d,
                         n_keep=base.n_keep, m_block=base.m,
                         codebook_bits=base.codebook_bits)
            derived_vq = True
        except ValueError:
            pass       # replace() raised before rebinding: hw is unchanged

    layers = shape_factory(workload_name)()
    model = PerformanceModel()
    perf = model.evaluate(layers, hw, skip_depthwise=bool(spec.get("skip_depthwise", False)))
    efficiency = model.efficiency(layers, hw)
    breakdown = model.energy_model.breakdown(perf.analysis, hw)

    compression_ratio = float(ctx["compressed"].compression_ratio())
    table9 = mvq_rows(array_sizes=(array_size,), workload=workload_name,
                      compression_ratio=compression_ratio)[0]
    # TOPS/W is ops-per-joule / 1e12, so per-frame energy follows directly
    energy_mj = float(perf.analysis.total_ops / (efficiency * 1e12) * 1e3)
    ctx["accel_report"] = {
        "workload": workload_name,
        "setting": setting.value,
        "array_size": array_size,
        "derived_vq": derived_vq,
        "runtime_ms": float(perf.runtime_s * 1e3),
        "cycles": float(perf.cycles),
        "throughput_tops": float(perf.throughput_tops),
        "utilization": float(perf.utilization),
        "efficiency_tops_w": float(efficiency),
        "energy_mj_per_frame": energy_mj,
        "energy_breakdown": {k: float(v) for k, v in breakdown.as_dict().items()},
        "compression_ratio": compression_ratio,
        "table9_row": table9,
    }
    ctx.log("accel_eval", "run", workload=workload_name,
            efficiency_tops_w=float(efficiency))
