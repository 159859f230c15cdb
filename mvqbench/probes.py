"""Spans the benchmark records from outside ``repro``.

``repro.core.telemetry`` already traces pipeline stages, k-means, serving
and explore candidates.  :func:`installed` adds the benchmark's own spans
around calls into public functions, by wrapping them for the duration of
a traced phase:

* ``bench.store.get`` / ``bench.store.put`` — ``ArtifactStore.get/put``;
* ``bench.predict_batched`` — ``repro.nn.serve.predict_batched``;
* ``bench.layer.forward`` — every compressed layer's ``forward`` (attrs:
  ``layer`` name when registered with :func:`name_layers`, resolved
  ``mode``);
* ``workloads.build`` — ``Scenario.build_model`` (the benchmark wraps its
  own spec builds with :func:`build_span`);
* ``core.kmeans.layer`` — one layer's k-means.  Layers may cluster in
  forked pool workers, whose tracer copies never reach this process, so
  each call appends its timing to a spool file that :func:`drain_kmeans`
  turns into spans.  ``perf_counter`` reads ``CLOCK_MONOTONIC``, which
  forked children share, so no clock fitting is needed.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.core import telemetry

#: id(compressed module) -> layer name, for bench.layer.forward attrs
_LAYER_NAMES: Dict[int, str] = {}

#: the k-means spool file while probes are installed
_SPOOL: Optional[Path] = None


def name_layers(pairs: Iterable[Tuple[str, Any]]) -> None:
    """Register ``(name, compressed module)`` pairs for span attributes."""
    for name, module in pairs:
        _LAYER_NAMES[id(module)] = name


def build_span():
    return telemetry.span("workloads.build")


def _layer_forward(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def forward(self, x):
        tracer = telemetry.active_tracer()
        if tracer is None:
            return fn(self, x)
        with tracer.span("bench.layer.forward",
                         {"layer": _LAYER_NAMES.get(id(self), "")}) as sp:
            out = fn(self, x)
            sp.set_attribute("mode", self.engine.last_mode)
        return out
    return forward


def _spooled(fn: Callable, k_index: int) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        spool = _SPOOL
        if spool is not None:
            line = json.dumps({"ts": start, "dur": end - start,
                               "pid": os.getpid(), "n": int(args[0].shape[0]),
                               "k": int(args[k_index]),
                               "iterations": int(result.iterations)})
            with open(spool, "a") as fh:
                fh.write(line + "\n")
        return result
    return wrapper


def _targets() -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
    from repro.core import compressor
    from repro.nn import serve as nn_serve
    from repro.nn.compressed import CompressedConv2d, CompressedLinear
    from repro.pipeline.artifacts import ArtifactStore
    from repro.pipeline.scenarios import Scenario

    return [
        (ArtifactStore, "get", telemetry.traced("bench.store.get")),
        (ArtifactStore, "put", telemetry.traced("bench.store.put")),
        (nn_serve, "predict_batched", telemetry.traced("bench.predict_batched")),
        (CompressedConv2d, "forward", _layer_forward),
        (CompressedLinear, "forward", _layer_forward),
        (Scenario, "build_model", telemetry.traced("workloads.build")),
        (compressor, "masked_kmeans", lambda fn: _spooled(fn, 2)),
        (compressor, "kmeans", lambda fn: _spooled(fn, 1)),
    ]


@contextmanager
def installed(spool: Path) -> Iterator[None]:
    """Wrap the probed functions; restore the originals on exit."""
    global _SPOOL
    saved = []
    _SPOOL = spool
    try:
        for owner, attr, wrap in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        _SPOOL = None


def drain_kmeans(tracer: telemetry.Tracer, spool: Path) -> None:
    """Turn spooled per-layer k-means timings into ``core.kmeans.layer``."""
    if not spool.exists():
        return
    lines = spool.read_text().splitlines()
    spool.unlink()
    for line in lines:
        rec = json.loads(line)
        tracer.record_span("core.kmeans.layer", rec["ts"], rec["ts"] + rec["dur"],
                           attrs={"n": rec["n"], "k": rec["k"], "pid": rec["pid"],
                                  "iterations": rec["iterations"]})


# -- reading a finished trace ----------------------------------------------------

def spans(records: Sequence[dict], name: str,
          window: Optional[Tuple[float, float]] = None) -> List[dict]:
    """Complete spans called ``name`` that start inside ``window``."""
    out = [r for r in records if r.get("ph") == "X" and r["name"] == name]
    if window is not None:
        lo, hi = window
        out = [r for r in out if lo <= r["ts"] <= hi]
    return out


def spans_within(records: Sequence[dict], name: str,
                 windows: Sequence[Tuple[float, float]]) -> List[dict]:
    """Complete spans called ``name`` that start inside any of the
    (disjoint) ``windows``."""
    return [r for window in windows for r in spans(records, name, window)]


def total(records: Sequence[dict], name: str,
          window: Optional[Tuple[float, float]] = None) -> float:
    return sum(r["dur"] for r in spans(records, name, window))
