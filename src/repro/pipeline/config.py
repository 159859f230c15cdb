"""Declarative configuration for the staged MVQ pipeline.

:class:`PipelineConfig` is the JSON/dict-loadable description of one
compression run: a global :class:`LayerCompressionConfig` (``base``) plus an
ordered list of per-layer-pattern overrides, the compressor runtime knobs
(crosslayer, workers, ...), the stage list to execute and
the evaluation/caching sections the downstream stages read.

The layer-config wire schema itself (:func:`layer_config_to_dict` /
:func:`layer_config_from_dict`) lives next to the dataclass in
:mod:`repro.core.compressor` and is re-exported here — one source of truth
shared with the ``.npz`` manifest of :mod:`repro.core.serialization`, so the
archive format and the pipeline schema cannot drift apart.  Archives written
before ``max_kmeans_iterations`` / ``seed`` were part of the manifest still
load: missing fields fall back to the dataclass defaults.

Named presets cover the paper's Table 3 ablation cases::

    PipelineConfig.from_dict({"preset": "table3_case_b", "base": {"k": 64}})
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.core.compressor import (
    LayerCompressionConfig,
    MVQCompressor,
    layer_config_from_dict,
    layer_config_to_dict,
)
from repro.core.grouping import GroupingStrategy

#: the canonical compression composition — ``MVQCompressor.compress`` runs
#: exactly these four stages in this order
CORE_STAGES: Tuple[str, ...] = ("group", "prune", "cluster", "quantize")

#: default stage list of a full scenario run (``finetune`` is a no-op unless
#: the ``finetune`` section is configured)
DEFAULT_STAGES: Tuple[str, ...] = CORE_STAGES + (
    "finetune", "export", "serve_eval", "accel_eval")

_LAYER_FIELDS = {f.name: f for f in dataclasses.fields(LayerCompressionConfig)}


@dataclass(frozen=True)
class LayerOverride:
    """One per-layer-pattern override: fields applied to layers whose dotted
    name matches ``pattern`` (``fnmatch`` syntax, e.g. ``"stages.*.conv1"``).
    Later overrides win when several patterns match the same layer."""

    pattern: str
    fields: Mapping[str, Any]

    def __post_init__(self):
        # validate eagerly so a bad override fails at config-build time
        unknown = set(self.fields) - set(_LAYER_FIELDS)
        if unknown:
            raise ValueError(
                f"override {self.pattern!r} sets unknown fields {sorted(unknown)}")

    def matches(self, layer_name: str) -> bool:
        return fnmatchcase(layer_name, self.pattern)

    def to_dict(self) -> Dict[str, Any]:
        fields = dict(self.fields)
        if isinstance(fields.get("strategy"), GroupingStrategy):
            fields["strategy"] = fields["strategy"].value
        return {"pattern": self.pattern, "fields": fields}


#: Named presets.  Table 3's ablation cases A-D toggle the
#: prune/use_masked_kmeans/store_mask switches exactly as
#: :meth:`MVQCompressor.ablation_case` does; ``mvq`` is an alias of case D.
PRESETS: Dict[str, Dict[str, Any]] = {
    "table3_case_a": {"base": {"prune": False, "use_masked_kmeans": False,
                               "store_mask": False}},
    "table3_case_b": {"base": {"prune": True, "use_masked_kmeans": False,
                               "store_mask": False}},
    "table3_case_c": {"base": {"prune": True, "use_masked_kmeans": False,
                               "store_mask": True}},
    "table3_case_d": {"base": {"prune": True, "use_masked_kmeans": True,
                               "store_mask": True}},
    "mvq": {"base": {"prune": True, "use_masked_kmeans": True,
                     "store_mask": True}},
}


def _merge(base: Mapping[str, Any], update: Mapping[str, Any]) -> Dict[str, Any]:
    """Shallow-recursive dict merge (``update`` wins, nested dicts merged)."""
    merged = dict(base)
    for key, value in update.items():
        if (key in merged and isinstance(merged[key], Mapping)
                and isinstance(value, Mapping)):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


@dataclass
class PipelineConfig:
    """Everything one pipeline run needs, loadable from JSON."""

    #: global compression defaults
    base: LayerCompressionConfig = field(default_factory=LayerCompressionConfig)
    #: ordered per-layer-pattern overrides on top of ``base``
    overrides: Tuple[LayerOverride, ...] = ()
    # -- compressor runtime knobs (mirror MVQCompressor's constructor) --------
    crosslayer: bool = False
    include_linear: bool = False
    quantize_codebook: bool = True
    skip_layers: Tuple[str, ...] = ()
    workers: Optional[int] = None
    decorrelate_seeds: bool = False
    # -- orchestration ---------------------------------------------------------
    stages: Tuple[str, ...] = CORE_STAGES
    cache_dir: Optional[str] = None
    export_path: Optional[str] = None
    #: synthetic-dataset spec shared by ``finetune`` (and accuracy reporting)
    data: Dict[str, Any] = field(default_factory=dict)
    #: ``finetune`` stage spec (``None``/empty disables the stage)
    finetune: Optional[Dict[str, Any]] = None
    #: ``serve_eval`` stage spec (batch size, sample count, engine mode)
    serve: Dict[str, Any] = field(default_factory=dict)
    #: ``accel_eval`` stage spec (workload, hardware setting, array size)
    accelerator: Dict[str, Any] = field(default_factory=dict)
    #: online-serving defaults read by ``repro.serve`` (batching policy
    #: knobs: max_batch_size, max_queue_size, overload, ...; max_wait_ms is
    #: accepted but inert, as dispatch is work-conserving)
    serving: Dict[str, Any] = field(default_factory=dict)
    #: design-space-exploration spec read by ``repro.explore`` (axes,
    #: strategy, budget, objectives); the rest of this config is the sweep's
    #: base pipeline.  Inert for plain pipeline runs.
    explore: Dict[str, Any] = field(default_factory=dict)

    # -- per-layer resolution --------------------------------------------------
    def resolve_layer_config(self, layer_name: str) -> LayerCompressionConfig:
        """The effective config of one layer: ``base`` + matching overrides."""
        cfg = self.base
        for override in self.overrides:
            if override.matches(layer_name):
                cfg = layer_config_from_dict(override.fields, base=cfg)
        return cfg

    def resolved_overrides(self, layer_names: Iterable[str]
                           ) -> Dict[str, LayerCompressionConfig]:
        """Exact-name override map for :class:`MVQCompressor` (only layers
        whose effective config differs from ``base``)."""
        resolved = {}
        for name in layer_names:
            cfg = self.resolve_layer_config(name)
            if cfg != self.base:
                resolved[name] = cfg
        return resolved

    def compressor_for(self, model) -> MVQCompressor:
        """The :class:`MVQCompressor` this config describes, with the layer
        patterns resolved against ``model``'s module names."""
        names = [name for name, _ in model.named_modules() if name]
        return MVQCompressor(
            self.base,
            per_layer_overrides=self.resolved_overrides(names),
            crosslayer=self.crosslayer,
            skip_layers=self.skip_layers,
            quantize_codebook=self.quantize_codebook,
            include_linear=self.include_linear,
            workers=self.workers,
            decorrelate_seeds=self.decorrelate_seeds,
        )

    # -- (de)serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": layer_config_to_dict(self.base),
            "overrides": [o.to_dict() for o in self.overrides],
            "crosslayer": self.crosslayer,
            "include_linear": self.include_linear,
            "quantize_codebook": self.quantize_codebook,
            "skip_layers": list(self.skip_layers),
            "workers": self.workers,
            "decorrelate_seeds": self.decorrelate_seeds,
            "stages": list(self.stages),
            "cache_dir": self.cache_dir,
            "export_path": self.export_path,
            "data": dict(self.data),
            "finetune": dict(self.finetune) if self.finetune else None,
            "serve": dict(self.serve),
            "accelerator": dict(self.accelerator),
            "serving": dict(self.serving),
            "explore": dict(self.explore),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        data = dict(data)
        preset = data.pop("preset", None)
        if preset is not None:
            if preset not in PRESETS:
                raise ValueError(
                    f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
            data = _merge(PRESETS[preset], data)

        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown PipelineConfig fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}")

        kwargs: Dict[str, Any] = {}
        if "base" in data:
            kwargs["base"] = layer_config_from_dict(data["base"])
        if "overrides" in data:
            kwargs["overrides"] = tuple(
                o if isinstance(o, LayerOverride)
                else LayerOverride(o["pattern"], dict(o.get("fields", {})))
                for o in data["overrides"])
        for key in ("crosslayer", "include_linear", "quantize_codebook",
                    "workers", "decorrelate_seeds", "cache_dir", "export_path"):
            if key in data:
                kwargs[key] = data[key]
        for key in ("skip_layers", "stages"):
            if key in data:
                kwargs[key] = tuple(data[key])
        for key in ("data", "serve", "accelerator", "serving", "explore"):
            if key in data and data[key] is not None:
                kwargs[key] = dict(data[key])
        if "finetune" in data:
            kwargs["finetune"] = dict(data["finetune"]) if data["finetune"] else None
        return cls(**kwargs)

    @classmethod
    def from_preset(cls, name: str, **overrides: Any) -> "PipelineConfig":
        return cls.from_dict({"preset": name, **overrides})

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "PipelineConfig":
        return cls.from_json(Path(path).read_text())

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")
