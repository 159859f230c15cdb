"""Serialization of compressed models to and from ``.npz`` archives.

A deployed MVQ model ships exactly the three artefacts the accelerator needs
(Section 5): per-layer assignments, LUT-encoded masks and the (shared or
per-layer) int8 codebooks.  This module packs a :class:`CompressedModel`
into a single ``.npz`` file in that format and reloads it, so a compression
run and the hardware-facing export are decoupled.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.core.codebook import Codebook, assignment_dtype

# the manifest uses the shared layer-config wire schema (also the pipeline
# config's schema — one source of truth).  Archives written by older
# versions (manifests without max_kmeans_iterations/seed) still load:
# missing fields fall back to the dataclass defaults.
from repro.core.compressor import (
    CompressedLayer,
    CompressedModel,
    layer_config_from_dict,
    layer_config_to_dict,
)
from repro.core.storage import MaskLUT
from repro.nn.module import Module


def save_compressed_model(compressed: CompressedModel, path: Union[str, Path]) -> None:
    """Write assignments, LUT-encoded masks and codebooks to a ``.npz`` archive."""
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    manifest = {"crosslayer": compressed.crosslayer, "layers": {}}

    codebook_ids: Dict[int, str] = {}
    for index, state in enumerate(compressed):
        key = id(state.codebook)
        if key not in codebook_ids:
            cb_name = f"codebook_{len(codebook_ids)}"
            codebook_ids[key] = cb_name
            # store the codewords as the accelerator sees them (already on the
            # int8 grid), so reconstruction after reload is bit-exact
            arrays[cb_name] = state.codebook.effective_codewords()
        safe = state.name.replace(".", "__")
        arrays[f"{safe}__assignments"] = state.assignments.astype(np.int32)
        if state.config.store_mask and state.mask is not None:
            lut = MaskLUT(state.config.n_keep, state.config.m)
            arrays[f"{safe}__mask_codes"] = lut.encode_mask(state.mask).astype(np.int32)
        manifest["layers"][state.name] = {
            "weight_shape": list(state.weight_shape),
            "config": layer_config_to_dict(state.config),
            "codebook": codebook_ids[key],
        }

    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    ).copy()
    np.savez_compressed(path, **arrays)


def load_compressed_model(model: Module, path: Union[str, Path]) -> CompressedModel:
    """Rebuild a :class:`CompressedModel` for ``model`` from a saved archive.

    ``model`` must have the same architecture the archive was produced from;
    the original full-precision weights are taken from the live model (they
    are only used for SSE reporting, not for reconstruction).
    """
    path = Path(path)
    with np.load(path) as data:
        manifest = json.loads(bytes(data["__manifest__"].tolist()).decode("utf-8"))
        arrays = {name: data[name] for name in data.files if name != "__manifest__"}

    modules = dict(model.named_modules())
    codebooks: Dict[str, Codebook] = {}
    layers: Dict[str, CompressedLayer] = {}
    for name, info in manifest["layers"].items():
        if name not in modules:
            raise KeyError(f"layer {name!r} from the archive is missing from the model")
        config = layer_config_from_dict(info["config"])
        cb_name = info["codebook"]
        if cb_name not in codebooks:
            # the stored codewords are already fake-quantized; bits=None means
            # lookups return them verbatim
            codebooks[cb_name] = Codebook(arrays[cb_name], bits=None)
        safe = name.replace(".", "__")
        assignments = arrays[f"{safe}__assignments"].astype(
            assignment_dtype(codebooks[cb_name].k))

        mask = None
        if config.store_mask:
            lut = MaskLUT(config.n_keep, config.m)
            mask = lut.decode_mask(arrays[f"{safe}__mask_codes"].astype(np.int64), config.d)

        from repro.core.grouping import group_weight

        original_grouped = group_weight(modules[name].weight.value, config.d, config.strategy)
        layers[name] = CompressedLayer(
            name=name, weight_shape=tuple(info["weight_shape"]), config=config,
            codebook=codebooks[cb_name], assignments=assignments, mask=mask,
            original_grouped=original_grouped,
        )
    return CompressedModel(model, layers, crosslayer=manifest["crosslayer"])


def compressed_file_size_bytes(path: Union[str, Path]) -> int:
    """On-disk size of a saved compressed model."""
    return Path(path).stat().st_size


# -- the zero-copy serving form ------------------------------------------------
# The shared-memory serving arena (repro.serve.shm) stores the same artefacts
# as the .npz archive but in the exact dtypes the decode-free engines consume
# (float64 effective codewords, narrowest-width integer assignments — uint8
# for k <= 256 — and bool masks), so a worker process attaching the arena
# builds its CentroidEngines directly on the shared views — np.asarray at
# matching dtype is a no-op, zero bytes copied.

def serving_arrays(compressed: CompressedModel):
    """``(manifest, arrays)`` of a compressed model in serving form.

    ``arrays`` maps names to the read-only state the compressed-domain
    engines need — deduplicated effective codebooks, narrow-width integer
    assignments and decoded boolean masks; ``manifest`` is the JSON-able
    layer table (the
    same layer-config wire schema as the ``.npz`` archive) that
    :func:`layers_from_serving_arrays` inverts.
    """
    arrays: Dict[str, np.ndarray] = {}
    manifest = {"crosslayer": compressed.crosslayer, "layers": {}}
    codebook_ids: Dict[int, str] = {}
    for state in compressed:
        key = id(state.codebook)
        if key not in codebook_ids:
            cb_name = f"codebook_{len(codebook_ids)}"
            codebook_ids[key] = cb_name
            arrays[cb_name] = np.ascontiguousarray(
                state.codebook.effective_codewords(), dtype=np.float64)
        safe = state.name.replace(".", "__")
        arrays[f"{safe}__assignments"] = np.ascontiguousarray(
            state.assignments, dtype=assignment_dtype(state.codebook.k))
        has_mask = bool(state.config.store_mask and state.mask is not None)
        if has_mask:
            arrays[f"{safe}__mask"] = np.ascontiguousarray(
                state.mask, dtype=bool)
        manifest["layers"][state.name] = {
            "weight_shape": list(state.weight_shape),
            "config": layer_config_to_dict(state.config),
            "codebook": codebook_ids[key],
            "mask": f"{safe}__mask" if has_mask else None,
        }
    return manifest, arrays


def layers_from_serving_arrays(manifest: Dict,
                               arrays: Dict[str, np.ndarray]
                               ) -> Dict[str, CompressedLayer]:
    """Rebuild the per-layer compressed state from serving-form arrays.

    The inverse of :func:`serving_arrays`.  Codebooks, assignments and masks
    are adopted as-is (views stay views — this is what makes worker-process
    attach zero-copy); ``original_grouped`` is ``None`` since no dense model
    backs a serving artifact.
    """
    codebooks: Dict[str, Codebook] = {}
    layers: Dict[str, CompressedLayer] = {}
    for name, info in manifest["layers"].items():
        config = layer_config_from_dict(info["config"])
        cb_name = info["codebook"]
        if cb_name not in codebooks:
            codebooks[cb_name] = Codebook(arrays[cb_name], bits=None)
        safe = name.replace(".", "__")
        mask = arrays[info["mask"]] if info.get("mask") else None
        layers[name] = CompressedLayer(
            name=name, weight_shape=tuple(info["weight_shape"]), config=config,
            codebook=codebooks[cb_name],
            assignments=arrays[f"{safe}__assignments"], mask=mask,
        )
    return layers


#: array-name prefix of non-compressed model state in a serving arena
STATE_PREFIX = "state::"

#: array-name prefix of engine-derived state (effective-codeword tables,
#: LUT routing tables, per-dtype caches) in a serving arena.  Shipping these
#: means spawned workers adopt the warmed engines' tables zero-copy instead
#: of rebuilding them per process — and a pinned LUT mode survives the trip.
DERIVED_PREFIX = "derived::"


def derived_serving_arrays(model: Module, compressed: CompressedModel):
    """``(derived_meta, arrays)`` of a serving model's engine-derived state.

    Walks the compressed layers of an already-swapped (and ideally warmed)
    serving ``model``; for each layer with a
    :class:`~repro.nn.compressed.CentroidEngine` exports its
    :meth:`derived_arrays` under ``derived::<layer>::<name>`` keys plus a
    JSON-able per-layer record of the execution mode.  Models without
    engines (e.g. the original dense model) yield ``({}, {})`` — derived
    shipping is purely opportunistic.
    """
    modules = dict(model.named_modules())
    derived_meta: Dict[str, Dict] = {}
    arrays: Dict[str, np.ndarray] = {}
    for name in compressed.layers:
        module = modules.get(name)
        engine = getattr(module, "engine", None)
        if engine is None:
            continue
        safe = name.replace(".", "__")
        for arr_name, arr in engine.derived_arrays().items():
            arrays[f"{DERIVED_PREFIX}{safe}::{arr_name}"] = arr
        derived_meta[name] = {"mode": engine.mode}
    return derived_meta, arrays


def serving_state_arrays(model: Module,
                         compressed: CompressedModel) -> Dict[str, np.ndarray]:
    """The non-compressed state a serving replica needs, keyed by state-dict
    name: every parameter except the compressed layers' dense weights (those
    live in the codebook + assignment arrays) plus all buffers.

    Works on the live model before *or* after its compressed-module swap —
    post-swap models simply no longer expose the dropped weights.
    """
    dropped = {f"{name}.weight" for name in compressed.layers}
    state: Dict[str, np.ndarray] = {}
    for key, param in model.named_parameters():
        if key not in dropped:
            state[key] = param.value
    for key, buf in model.named_buffers():
        state[key] = np.asarray(buf)
    return state
