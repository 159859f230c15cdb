"""Build ready-to-serve models from scenarios and ``.npz`` artifacts.

Two sources, one output shape: a :class:`LoadedModel` — N independent model
replicas with the decode-free compressed-domain modules already swapped in
(one replica per worker thread; engines and im2col buffers are not
thread-safe) plus the metadata the server and CLI report.

* :func:`load_scenario` runs a PR-3 scenario's compression stages
  (``group → prune → cluster → quantize``, warm-cacheable through the
  pipeline's :class:`~repro.pipeline.artifacts.ArtifactStore`) and serves
  the result.
* :func:`load_npz` rebuilds a :class:`~repro.core.compressor.CompressedModel`
  from a serialized ``.npz`` manifest against a model-zoo architecture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.serve.batcher import BatchPolicy
from repro.serve.errors import ManifestError

#: keys of a scenario's ``serving`` section mapped onto BatchPolicy fields
_POLICY_KEYS = ("max_batch_size", "max_wait_ms", "max_queue_size", "overload")


def policy_from_spec(spec: Optional[Dict[str, Any]] = None,
                     **overrides: Any) -> BatchPolicy:
    """A :class:`BatchPolicy` from a scenario's ``serving`` section.

    ``overrides`` (e.g. CLI flags) win over the spec; unknown spec keys
    (``workers``, ``mode``) are ignored here — they configure the loader,
    not the batcher.
    """
    merged: Dict[str, Any] = {}
    for key in _POLICY_KEYS:
        if spec and key in spec:
            merged[key] = spec[key]
        if key in overrides and overrides[key] is not None:
            merged[key] = overrides[key]
    return BatchPolicy(**merged)


@dataclass
class LoadedModel:
    """Everything the server needs to register one model."""

    name: str
    replicas: List[Module]
    compressed: Any                      # repro.core.compressor.CompressedModel
    input_shape: Tuple[int, ...]
    serving_spec: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    #: spawn-safe recipe for rebuilding the bare architecture in a worker
    #: process — ``("scenario", name)`` or ``("zoo", model, kwargs)``
    builder_spec: Optional[Tuple] = None

    def policy(self, **overrides: Any) -> BatchPolicy:
        return policy_from_spec(self.serving_spec, **overrides)

    def register_with(self, server, policy: Optional[BatchPolicy] = None,
                      fault_policy: Optional[Any] = None,
                      **policy_overrides: Any) -> None:
        server.register(self.name, self.replicas,
                        policy=policy or self.policy(**policy_overrides),
                        fault_policy=fault_policy,
                        input_shape=self.input_shape)

    def process_pool(self, workers: int = 2, **kwargs: Any):
        """A :class:`~repro.serve.sharded.ProcessReplicaPool` for this model.

        Worker processes rebuild the architecture from :attr:`builder_spec`
        and attach the shared-memory arena for all compressed/model state;
        register the pool's ``.replicas`` exactly like thread replicas.
        """
        from repro.serve.sharded import ProcessReplicaPool

        if self.builder_spec is None:
            raise ValueError(
                f"model {self.name!r} has no spawn-safe builder spec; "
                "process workers need a scenario or model-zoo source")
        kwargs.setdefault("max_batch_size", self.policy().max_batch_size)
        if kwargs.get("mode") is None:
            kwargs["mode"] = self.meta.get("mode", "auto")
        return ProcessReplicaPool(self.compressed, self.builder_spec,
                                  self.input_shape, workers=workers,
                                  model=self.replicas[0], **kwargs)


def _shared_view(array: np.ndarray) -> np.ndarray:
    view = np.asarray(array).view()
    view.flags.writeable = False
    return view


def adopt_state_views(model: Module, state: Dict[str, np.ndarray],
                      strict: bool = True) -> Dict[str, np.ndarray]:
    """Rebind ``model``'s parameters and buffers to read-only views of the
    arrays in ``state`` (keyed by state-dict name).

    This is the zero-copy counterpart of ``load_state_dict``: instead of
    copying values *into* the model's own arrays, the model's parameters
    are pointed *at* the shared arrays — one physical copy of model state
    no matter how many replicas adopt it.  The views are read-only, which
    is safe for serving (eval-mode forwards never write parameters or
    buffers — BatchNorm only updates running stats in training mode, and
    it rebinds rather than writes in place even then).  Gradients are
    re-zeroed private arrays, so the rare introspection path that touches
    ``.grad`` cannot write through to shared state.

    Used by both sharding tiers: thread replicas adopt views over the
    primary replica's arrays; worker processes adopt views over the
    shared-memory arena.  Returns the adopted ``{name: view}`` map.
    """
    adopted: Dict[str, np.ndarray] = {}
    for name, param in model.named_parameters():
        if name not in state:
            if strict:
                raise KeyError(f"no shared array for parameter {name!r}")
            continue
        view = _shared_view(state[name])
        if view.shape != param.value.shape:
            raise ValueError(
                f"shared array for {name!r} has shape {view.shape}, "
                f"model expects {param.value.shape}")
        param.value = view
        param.grad = np.zeros_like(view)
        adopted[name] = view
    for mod_name, module in model.named_modules():
        prefix = f"{mod_name}." if mod_name else ""
        for attr in module._buffer_names:
            name = f"{prefix}{attr}"
            if name not in state:
                if strict:
                    raise KeyError(f"no shared array for buffer {name!r}")
                continue
            view = _shared_view(state[name])
            setattr(module, attr, view)
            adopted[name] = view
    return adopted


def _backing_array(array: np.ndarray) -> np.ndarray:
    """Walk ``.base`` links to the array that owns the storage."""
    base = array
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base


def replica_state_report(replicas: List[Module]) -> Dict[str, Any]:
    """``nbytes`` accounting of model state across replicas.

    ``total_bytes`` counts every replica's parameters, buffers and
    compressed-engine arrays as if each held its own copy; ``unique_bytes``
    counts each distinct backing buffer once.  Deduplicated replicas show
    ``total ≈ N x unique``; the dedup test asserts exactly that.
    """
    total = 0
    unique: Dict[int, int] = {}

    def visit(array: Optional[np.ndarray]) -> None:
        nonlocal total
        if array is None:
            return
        array = np.asarray(array)
        total += array.nbytes
        backing = _backing_array(array)
        unique[id(backing)] = max(backing.nbytes, array.nbytes)

    for replica in replicas:
        for _, param in replica.named_parameters():
            visit(param.value)
        for _, buf in replica.named_buffers():
            visit(buf)
        for _, module in replica.named_modules():
            engine = getattr(module, "engine", None)
            if engine is None:
                continue
            visit(engine.codebook.codewords)
            visit(engine.assignments)
            visit(engine.mask)
    unique_bytes = sum(unique.values())
    return {"replicas": len(replicas), "total_bytes": int(total),
            "unique_bytes": int(unique_bytes),
            "dedup_ratio": float(total / max(unique_bytes, 1))}


def _replicate(model: Module, build_fresh, count: int, compressed,
               mode: str) -> List[Module]:
    """``count`` independent serving replicas of one compressed model.

    The first replica is the live model itself; extra replicas are fresh
    architecture builds whose parameters and buffers are rebound to
    read-only *views* of the primary's arrays (so trained/fine-tuned
    non-compressed state — biases, batch-norm — survives without a
    per-replica state-dict copy), then get their own compressed-module
    swap.  What stays per-replica is exactly the state that is not
    thread-safe to share — engine chunk scratch and im2col buffers; the
    raw compressed arrays, the engines' derived tables/caches, and every
    parameter hold one physical copy across all replicas (the thread-mode
    mirror of the process tier's shared-memory arena).
    """
    from repro.nn.compressed import swap_to_compressed

    replicas = [model]
    shared_state = {name: p.value for name, p in model.named_parameters()}
    shared_state.update(
        {name: np.asarray(buf) for name, buf in model.named_buffers()})
    for _ in range(max(0, count - 1)):
        fresh = build_fresh()
        adopt_state_views(fresh, shared_state)
        replicas.append(fresh)
    primary_swapped = None
    for replica in replicas:
        swapped = swap_to_compressed(replica, compressed, mode=mode)
        if primary_swapped is None:
            primary_swapped = swapped
        else:
            for name, module in swapped.items():
                source = primary_swapped[name]
                module.engine.share_tables_with(source.engine)
                # from_layer copies the bias; point it back at one copy
                if module.bias is not None:
                    module.bias.value = _shared_view(source.bias.value)
                    module.bias.grad = np.zeros_like(module.bias.value)
        replica.eval()
    return replicas


def load_scenario(name: str, mode: Optional[str] = None, replicas: int = 1,
                  cache_dir: Optional[str] = None) -> LoadedModel:
    """Compress a registered scenario's model and prepare it for serving.

    Runs the four core compression stages (cluster results come from the
    artifact cache when ``cache_dir`` is warm), then swaps the decode-free
    modules into ``replicas`` independent copies.  ``mode`` defaults to
    the scenario serving section's ``engine_mode`` key, so a scenario can
    pin the LUT path declaratively; an explicit argument wins.
    """
    from repro.pipeline.config import CORE_STAGES
    from repro.pipeline.scenarios import get_scenario, run_scenario

    scenario = get_scenario(name)
    result = run_scenario(scenario, stages=CORE_STAGES, cache_dir=cache_dir)
    compressed = result.compressed
    serving_spec = dict(scenario.pipeline.get("serving", {}) or {})
    if mode is None:
        mode = str(serving_spec.get("engine_mode", "auto"))
    models = _replicate(compressed.model, scenario.build_model, replicas,
                        compressed, mode)
    return LoadedModel(
        name=scenario.name,
        replicas=models,
        compressed=compressed,
        input_shape=tuple(scenario.effective_input_shape()),
        serving_spec=serving_spec,
        builder_spec=("scenario", scenario.name),
        meta={
            "source": "scenario",
            "model": scenario.model,
            "mode": mode,
            "compression_ratio": float(compressed.compression_ratio()),
            "sparsity": float(compressed.sparsity()),
            "layers": len(compressed),
            "cluster_status": next(
                (e["status"] for e in result.events if e["stage"] == "cluster"),
                None),
        },
    )


def verify_npz(path: Any) -> Dict[str, Any]:
    """Pre-flight check of a compressed-model ``.npz`` archive.

    Raises :class:`~repro.serve.errors.ManifestError` — naming the file and
    the first bad array — when the archive is missing, truncated, corrupted
    (zip CRC / zlib failure while decompressing a member) or internally
    inconsistent (manifest referencing arrays that are not there).  Returns
    the parsed manifest on success.

    ``np.load`` decompresses members lazily, so without this check a
    truncated deploy artifact surfaces as a bare ``zlib.error`` from deep
    inside the first forward-time codebook access; here it fails at load
    time with a diagnosable, typed message.
    """
    path = Path(path)
    if not path.exists():
        raise ManifestError(path, "file does not exist")
    try:
        data = np.load(path)
    except Exception as error:
        raise ManifestError(
            path, f"not a readable npz archive: {error}") from error
    with data:
        arrays = {}
        for name in data.files:
            try:
                arrays[name] = data[name]
            except Exception as error:
                raise ManifestError(
                    path, f"truncated or corrupted entry: {error}",
                    array=name) from error
        if "__manifest__" not in arrays:
            raise ManifestError(path, "missing the __manifest__ array "
                                      "(not a compressed-model archive?)")
        try:
            manifest = json.loads(
                bytes(arrays["__manifest__"].tolist()).decode("utf-8"))
        except Exception as error:
            raise ManifestError(path, f"unreadable manifest JSON: {error}",
                                array="__manifest__") from error
        for layer, info in manifest.get("layers", {}).items():
            safe = layer.replace(".", "__")
            expected = [info.get("codebook"), f"{safe}__assignments"]
            if info.get("config", {}).get("store_mask", True):
                expected.append(f"{safe}__mask_codes")
            for name in expected:
                if name not in arrays:
                    raise ManifestError(
                        path, f"manifest references layer {layer!r} but the "
                              "archive lacks its array", array=name)
    return manifest


def load_npz(path: str, model: str, mode: Optional[str] = None,
             replicas: int = 1,
             model_kwargs: Optional[Dict[str, Any]] = None,
             input_shape: Tuple[int, ...] = (3, 16, 16),
             name: Optional[str] = None) -> LoadedModel:
    """Serve a serialized ``.npz`` compressed-model manifest.

    ``model`` names a :data:`repro.nn.models.MODEL_ZOO` architecture the
    archive was produced from (the archive carries assignments, masks and
    codebooks; the architecture — and its non-compressed parameters — come
    from the zoo build).
    """
    from repro.core.serialization import load_compressed_model
    from repro.workloads import model_factory

    kwargs = dict(model_kwargs or {})
    factory = model_factory(model)
    verify_npz(path)
    if mode is None:
        mode = "auto"

    def build_fresh() -> Module:
        return factory(**kwargs)

    live = build_fresh()
    try:
        compressed = load_compressed_model(live, path)
    except KeyError as error:
        # the archive is internally consistent (verify_npz passed) but does
        # not fit this architecture — still a deploy-artifact problem, so
        # still the typed manifest error
        raise ManifestError(
            path, f"archive does not match the {model!r} architecture: "
                  f"{error}") from error
    models = _replicate(live, build_fresh, replicas, compressed, mode)
    return LoadedModel(
        name=name or f"{model}@{path}",
        replicas=models,
        compressed=compressed,
        input_shape=tuple(input_shape),
        builder_spec=("zoo", model, dict(kwargs)),
        meta={
            "source": "npz",
            "path": str(path),
            "model": model,
            "mode": mode,
            "compression_ratio": float(compressed.compression_ratio()),
            "sparsity": float(compressed.sparsity()),
            "layers": len(compressed),
        },
    )
