"""One registry for every workload: executable models + accelerator tables.

Before this package, the repo kept two disconnected registries coupled only
by string convention — mini model factories in
:data:`repro.nn.models.MODEL_ZOO` and hand-written full-size LayerShape
tables in :data:`repro.accelerator.workloads.WORKLOADS`.  Here both become
views of one :class:`WorkloadEntry` table:

* zoo entries contribute their ``model_factory`` (the *same* callable
  object as the zoo's, so a zoo name builds bit-identical models);
* accelerator entries contribute their ``shape_factory`` (again the same
  object as in :data:`~repro.accelerator.workloads.WORKLOADS`);
* spec-backed entries (:mod:`repro.workloads.specs`, or any JSON file a
  user registers) derive *both* from one :class:`WorkloadSpec`.

Entries are populated lazily on first lookup, so importing this module is
free and the nn/accelerator packages can keep their raw tables as the
source of truth without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.workloads.resolving import resolve
from repro.workloads.schema import WorkloadSpec


@dataclass(frozen=True)
class WorkloadEntry:
    """One named workload: how to build its model and/or its shape table."""

    name: str
    description: str = ""
    #: declarative spec, when the entry is schema-backed
    spec: Optional[WorkloadSpec] = None
    #: ``(**kwargs) -> Module`` — executable mini model
    model_factory: Optional[Callable[..., Any]] = None
    #: ``() -> List[LayerShape]`` — accelerator layer table
    shape_factory: Optional[Callable[[], List[Any]]] = None
    #: where the entry came from: "zoo", "accel", "spec", "user"
    source: str = "user"
    tags: Dict[str, Any] = field(default_factory=dict)

    @property
    def has_model(self) -> bool:
        return self.model_factory is not None

    @property
    def has_shapes(self) -> bool:
        return self.shape_factory is not None

    def build_model(self, **kwargs: Any):
        if self.model_factory is None:
            raise KeyError(
                f"workload {self.name!r} has no executable model factory "
                f"(shape-table only)")
        return self.model_factory(**kwargs)

    def layer_shapes(self) -> List[Any]:
        if self.shape_factory is None:
            raise KeyError(
                f"workload {self.name!r} has no accelerator layer table "
                f"(model only)")
        return list(self.shape_factory())


_REGISTRY: Dict[str, WorkloadEntry] = {}
_populated = False


def _spec_model_factory(spec: WorkloadSpec) -> Callable[..., Any]:
    """A stable zoo-style factory for a spec (same object every lookup)."""
    def factory(seed: int = 0):
        return spec.build_model(seed=seed)

    factory.__name__ = f"build_{spec.name}"
    factory.__doc__ = f"SpecModel factory for workload {spec.name!r}."
    return factory


def register(entry: WorkloadEntry, overwrite: bool = False) -> WorkloadEntry:
    _populate()
    if entry.name in _REGISTRY and not overwrite:
        raise ValueError(f"workload {entry.name!r} is already registered")
    _REGISTRY[entry.name] = entry
    return entry


def register_spec(spec: WorkloadSpec,
                  model_factory: Optional[Callable[..., Any]] = None,
                  source: str = "spec", overwrite: bool = False) -> WorkloadEntry:
    """Register a declarative spec as a workload entry.

    Both factories derive from the spec; ``model_factory`` overrides the
    executable side for entries that shadow a hand-written model (the spec
    then only supplies the accelerator table — and the cross-validation
    test holds the two against each other).
    """
    return register(WorkloadEntry(
        name=spec.name,
        description=spec.description,
        spec=spec,
        model_factory=model_factory or _spec_model_factory(spec),
        shape_factory=spec.layer_shapes,
        source=source,
    ), overwrite=overwrite)


def _merge_entry(name: str, **updates: Any) -> None:
    current = _REGISTRY.get(name)
    if current is None:
        _REGISTRY[name] = WorkloadEntry(name=name, **updates)
    else:
        import dataclasses

        _REGISTRY[name] = dataclasses.replace(current, **updates)


def _populate() -> None:
    """Seed the registry from the legacy tables and the built-in specs."""
    global _populated
    if _populated:
        return
    _populated = True
    from repro.accelerator.workloads import WORKLOADS
    from repro.nn.models import (MODEL_ZOO, deeplab_lite_mini,
                                 simple_detector_mini)
    from repro.workloads.specs import BUILTIN_SPECS

    for name, factory in MODEL_ZOO.items():
        _merge_entry(name, model_factory=factory, source="zoo",
                     description=f"model-zoo mini {name}")
    for name, factory in WORKLOADS.items():
        _merge_entry(name, shape_factory=factory, source="zoo",
                     description=f"model-zoo mini {name} + full-size "
                                 f"accelerator table")

    # spec-backed entries; detection/segmentation keep their hand-written
    # executable factories and take the accelerator table from the schema
    shadows = {"simple_detector": simple_detector_mini,
               "deeplab_lite": deeplab_lite_mini}
    for name, spec_factory in BUILTIN_SPECS.items():
        spec = spec_factory()
        register_spec(spec, model_factory=shadows.get(name), overwrite=True)


def get_entry(name: str) -> WorkloadEntry:
    _populate()
    return resolve(_REGISTRY, name, "workload")


def model_factory(name: str) -> Callable[..., Any]:
    """Executable model factory of a registered workload."""
    entry = get_entry(name)
    if entry.model_factory is None:
        raise KeyError(
            f"workload {name!r} has no executable model factory; "
            f"models available: {sorted(model_zoo())}")
    return entry.model_factory


def shape_factory(name: str) -> Callable[[], List[Any]]:
    """Accelerator layer-table factory of a registered workload."""
    entry = get_entry(name)
    if entry.shape_factory is None:
        raise KeyError(
            f"workload {name!r} has no accelerator layer table; "
            f"tables available: {sorted(shape_tables())}")
    return entry.shape_factory


def model_zoo() -> Dict[str, Callable[..., Any]]:
    """Every entry with an executable model, name -> factory."""
    _populate()
    return {name: e.model_factory for name, e in _REGISTRY.items()
            if e.model_factory is not None}


def shape_tables() -> Dict[str, Callable[[], List[Any]]]:
    """Every entry with an accelerator table, name -> factory."""
    _populate()
    return {name: e.shape_factory for name, e in _REGISTRY.items()
            if e.shape_factory is not None}


def list_entries() -> List[WorkloadEntry]:
    _populate()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def spec_entries() -> List[WorkloadEntry]:
    """Entries backed by a declarative spec (schema <-> model crosscheck set)."""
    _populate()
    return [e for e in list_entries() if e.spec is not None]
