"""Zero-dependency tracing + metrics for the whole stack.

One process-global :class:`Tracer` (installed with :func:`enable` /
:func:`tracing`) collects **hierarchical spans** — context-manager or
decorator API, monotonic ``perf_counter`` timestamps, a thread-local
parent stack, explicit attributes — plus a process-global
**counter/gauge registry** and **instant events** (fault injections,
retries, quarantines).  Finished records land in a bounded in-memory
buffer and export two ways:

* **Chrome trace-event JSON** (:meth:`Tracer.export_chrome`) — loadable
  in Perfetto / ``chrome://tracing``, one track per thread and one
  process group per worker process;
* **JSONL** (:meth:`Tracer.export_jsonl`) — one record per line for
  ad-hoc grepping and downstream tooling.

Disabled (the default) the instrumentation follows the same guarded
fast path as :func:`repro.core.faults.fault_point`: one module-global
load and an ``is None`` test, returning the shared no-op span — no
allocation, gated by ``benchmarks/perf/bench_telemetry``.  Hot call
sites that want to attach attributes should branch on
:func:`active_tracer` so the attribute dict is never built while
tracing is off::

    tracer = telemetry.active_tracer()
    with tracer.span("serve.batch", {"size": n}) if tracer else telemetry.NOOP:
        ...

Cross-process traces: a worker process enables its own tracer, records
spans against its own ``perf_counter`` clock and ships the drained
records over the existing IPC channel; the parent fits a clock offset
from the request/reply windows it observed (:func:`fit_clock_offset`)
and merges the corrected records (:meth:`Tracer.merge`) so a sharded
request renders as one tree across processes — each parent-side IPC
window is guaranteed to enclose its worker-side span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "NOOP",
    "SPAN_POINTS",
    "EVENT_POINTS",
    "Span",
    "Tracer",
    "active_tracer",
    "counter_add",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "event",
    "fit_clock_offset",
    "format_summary",
    "gauge_set",
    "quantile",
    "record_span",
    "register_event_point",
    "register_span_point",
    "span",
    "timed_span",
    "traced",
    "tracing",
    "validate_chrome_trace",
]


# ---------------------------------------------------------------------------
# quantiles (the one shared interpolated-percentile implementation)
# ---------------------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``q`` in [0, 1]) by linear interpolation.

    Matches ``np.percentile(values, q * 100)`` exactly (same
    lower+frac*(upper-lower) interpolation over the sorted data) without
    paying an array conversion for a handful of floats — this is the one
    quantile implementation shared by :mod:`repro.serve.metrics` and the
    benchmark harness.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not values:
        return 0.0
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


# ---------------------------------------------------------------------------
# the span/event point registries (documentary, like faults.FAULT_POINTS)
# ---------------------------------------------------------------------------

#: span name (or pattern) -> what the span measures.  Purely documentary —
#: span() does not validate against it on the hot path — but the README
#: "Observability" table and tests are generated from it.
SPAN_POINTS: Dict[str, str] = {}

#: instant-event name -> what firing it means.
EVENT_POINTS: Dict[str, str] = {}


def register_span_point(name: str, description: str) -> str:
    SPAN_POINTS[name] = description
    return name


def register_event_point(name: str, description: str) -> str:
    EVENT_POINTS[name] = description
    return name


register_span_point("pipeline.stage.<name>",
                    "one pipeline stage (group/prune/cluster/...); stage "
                    "event detail is attached as span attributes")
register_span_point("pipeline.cluster.kmeans",
                    "the fresh (non-cached) k-means work of the cluster "
                    "stage, with the clustered layer list")
register_span_point("pipeline.serve_eval.forward",
                    "the compressed-domain batched forward of serve_eval — "
                    "the stage report's throughput derives from this span")
register_span_point("serve.request",
                    "one request, enqueue to completion, on the submitting "
                    "thread's track")
register_span_point("serve.request.queue_wait",
                    "enqueue until a worker popped the request's batch")
register_span_point("serve.request.execute",
                    "batch pop until the request's result was set")
register_span_point("serve.batch",
                    "one coalesced batch on a worker thread: assembly + "
                    "forward + scatter")
register_span_point("serve.batch.assemble",
                    "stacking the batch's request payloads")
register_span_point("serve.forward",
                    "the replica forward pass of one batch")
register_span_point("serve.worker.ipc.forward",
                    "parent-side window of one forward shipped to a process "
                    "worker (encloses the worker-side span)")
register_span_point("serve.worker.forward",
                    "worker-process-side forward, recorded in the worker "
                    "and merged clock-offset-corrected into the parent "
                    "trace")
register_span_point("explore.candidate",
                    "one candidate evaluation (attrs: wave, fidelity, "
                    "attempts; shared_with on a shared member)")

register_event_point("fault.injected",
                     "an armed fault_point fired (attrs: point, kind, tag)")
register_event_point("serve.shed",
                     "a submission was rejected under the overload policy")
register_event_point("serve.timeout", "a request missed its deadline")
register_event_point("serve.retry", "a failed request was re-queued")
register_event_point("serve.quarantine", "a replica was benched")
register_event_point("serve.restart",
                     "a quarantined replica re-warmed and re-admitted "
                     "itself")
register_event_point("serve.degrade",
                     "a replica fell back to dense execution after an "
                     "engine fault")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Span:
    """One live span; use as a context manager (or via :func:`traced`)."""

    __slots__ = ("name", "attrs", "start", "end", "span_id", "parent_id",
                 "tid", "thread", "_tracer")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attrs = attrs if attrs is not None else {}
        self.start = 0.0
        self.end = 0.0
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self.tid = 0
        self.thread = ""
        self._tracer = tracer

    def set_attribute(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        current = threading.current_thread()
        self.tid = current.ident or 0
        self.thread = current.name
        stack = self._tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # exited out of order; never corrupt the stack
            stack.remove(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    @property
    def duration_s(self) -> float:
        return 0.0


#: the singleton no-op span — ``span()`` returns it with no allocation
#: whenever tracing is disabled
NOOP = _NoopSpan()


class _Stopwatch:
    """A measuring-but-not-recording span for :func:`timed_span`.

    Call sites that *need* the duration (e.g. a stage report's
    throughput) get the same measurement whether tracing is on or off —
    that is what keeps reports and traces from ever disagreeing.
    """

    __slots__ = ("start", "end")

    def __init__(self):
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "_Stopwatch":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.perf_counter()
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    @property
    def duration_s(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Process-global trace collector: spans, events, counters, gauges.

    Finished records are plain dicts in one bounded deque (oldest
    dropped first; ``dropped`` counts the loss), so a long chaos run
    cannot grow memory without bound.  All record timestamps are raw
    ``time.perf_counter()`` seconds; exporters rebase onto the tracer's
    epoch so Chrome timestamps start near zero.
    """

    def __init__(self, buffer_size: int = 65536,
                 process_name: Optional[str] = None):
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.pid = os.getpid()
        self.process_name = process_name or "main"
        self.epoch = time.perf_counter()
        self.buffer_size = int(buffer_size)
        self._buffer: deque = deque(maxlen=self.buffer_size)
        self._appended = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._process_names: Dict[int, str] = {self.pid: self.process_name}

    # -- recording ------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Span:
        return Span(self, name, attrs)

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._buffer.append(record)
            self._appended += 1

    def _finish(self, span: Span) -> None:
        self._append({
            "ph": "X", "name": span.name, "ts": span.start,
            "dur": span.end - span.start, "pid": self.pid, "tid": span.tid,
            "thread": span.thread, "id": span.span_id,
            "parent": span.parent_id, "args": span.attrs,
        })

    def record_span(self, name: str, start: float, end: float,
                    tid: Optional[int] = None, thread: Optional[str] = None,
                    attrs: Optional[Dict[str, Any]] = None,
                    parent: Optional[int] = None) -> None:
        """Record a span with explicit start/end ``perf_counter`` times.

        For phases reconstructed after the fact — e.g. a request's
        queue-wait, known only once a worker pops its batch.  ``tid``
        defaults to the calling thread.
        """
        current = threading.current_thread()
        self._append({
            "ph": "X", "name": name, "ts": float(start),
            "dur": max(0.0, float(end) - float(start)), "pid": self.pid,
            "tid": int(tid) if tid is not None else (current.ident or 0),
            "thread": thread if thread is not None else current.name,
            "id": next(self._ids), "parent": parent,
            "args": attrs if attrs is not None else {},
        })

    def event(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        current = threading.current_thread()
        self._append({
            "ph": "i", "name": name, "ts": time.perf_counter(),
            "pid": self.pid, "tid": current.ident or 0,
            "thread": current.name,
            "args": attrs if attrs is not None else {},
        })

    def counter_add(self, name: str, value: float = 1) -> float:
        with self._lock:
            total = self._counters.get(name, 0) + value
            self._counters[name] = total
        return total

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._appended - len(self._buffer)

    # -- cross-process merge ----------------------------------------------------
    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return every buffered record (worker-side shipping)."""
        with self._lock:
            records = list(self._buffer)
            self._buffer.clear()
        return records

    def merge(self, records: Sequence[Dict[str, Any]],
              clock_offset_s: float = 0.0,
              process_name: Optional[str] = None) -> int:
        """Append records from another process, shifted onto this clock.

        ``clock_offset_s`` maps the sender's ``perf_counter`` domain into
        ours (``local_ts = remote_ts + offset``); fit it with
        :func:`fit_clock_offset`.  Records keep their own ``pid`` so the
        exporters render one track group per worker process.
        """
        merged = 0
        for record in records:
            record = dict(record)
            record["ts"] = float(record["ts"]) + clock_offset_s
            # parent links do not survive the process boundary
            record["parent"] = None
            if process_name is not None:
                self._process_names.setdefault(int(record["pid"]),
                                               process_name)
            self._append(record)
            merged += 1
        return merged

    # -- export -----------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._buffer)

    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON dict (complete "X" events, µs)."""
        events: List[Dict[str, Any]] = []
        tracks: Dict[Tuple[int, int], str] = {}
        for record in sorted(self.records(), key=lambda r: r["ts"]):
            tracks.setdefault((record["pid"], record["tid"]),
                              record.get("thread", ""))
            out = {
                "name": record["name"],
                "ph": record["ph"],
                "ts": round((record["ts"] - self.epoch) * 1e6, 3),
                "pid": record["pid"],
                "tid": record["tid"],
                "args": record.get("args", {}),
            }
            if record["ph"] == "X":
                out["dur"] = round(record["dur"] * 1e6, 3)
            if record["ph"] == "i":
                out["s"] = "t"  # instant scope: thread
            events.append(out)
        meta: List[Dict[str, Any]] = []
        for pid in sorted({pid for pid, _ in tracks}):
            meta.append({"ph": "M", "name": "process_name", "pid": pid,
                         "tid": 0, "args": {"name": self._process_names.get(
                             pid, f"pid {pid}")}})
        for (pid, tid), thread in sorted(tracks.items()):
            meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                         "tid": tid, "args": {"name": thread or str(tid)}})
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.chrome_trace()) + "\n")

    def export_jsonl(self, path: Union[str, Path]) -> None:
        """One JSON record per line, raw perf_counter seconds, plus a
        final ``summary`` line with the counter/gauge registry."""
        lines = [json.dumps(record, default=str)
                 for record in self.records()]
        with self._lock:
            tail = {"ph": "summary", "counters": dict(self._counters),
                    "gauges": dict(self._gauges),
                    "dropped": self._appended - len(self._buffer)}
        lines.append(json.dumps(tail, default=str))
        Path(path).write_text("\n".join(lines) + "\n")

    # -- summary ---------------------------------------------------------------
    def summary(self, top: int = 12) -> Dict[str, Any]:
        """Span tree aggregated by name (inclusive/exclusive ms) + top
        counters — the ``telemetry`` section of the CLI run reports."""
        records = self.records()
        spans = [r for r in records if r["ph"] == "X"]
        by_id = {r["id"]: r for r in spans if r.get("id") is not None}
        agg: Dict[str, Dict[str, Any]] = {}
        child_total: Dict[str, float] = {}
        parent_of: Dict[str, Optional[str]] = {}
        for record in spans:
            name = record["name"]
            stats = agg.setdefault(name, {"count": 0, "total_ms": 0.0,
                                          "max_ms": 0.0})
            dur_ms = record["dur"] * 1e3
            stats["count"] += 1
            stats["total_ms"] += dur_ms
            stats["max_ms"] = max(stats["max_ms"], dur_ms)
            parent = by_id.get(record.get("parent"))
            if parent is not None and parent["name"] != name:
                parent_of.setdefault(name, parent["name"])
                child_total[parent["name"]] = (
                    child_total.get(parent["name"], 0.0) + dur_ms)
            else:
                parent_of.setdefault(name, None)
        for name, stats in agg.items():
            stats["exclusive_ms"] = max(
                0.0, stats["total_ms"] - child_total.get(name, 0.0))
            stats["parent"] = parent_of.get(name)
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            dropped = self._appended - len(self._buffer)
        top_counters = dict(sorted(counters.items(),
                                   key=lambda kv: -abs(kv[1]))[:top])
        return {
            "spans": agg,
            "events": sum(1 for r in records if r["ph"] == "i"),
            "counters": top_counters,
            "gauges": gauges,
            "records": len(records),
            "dropped": dropped,
        }


def format_summary(summary: Dict[str, Any],
                   prefix: str = "[telemetry]") -> List[str]:
    """Render :meth:`Tracer.summary` as indented span-tree text lines."""
    spans = summary.get("spans", {})
    lines = [f"{prefix} {summary.get('records', 0)} records "
             f"({summary.get('events', 0)} events, "
             f"{summary.get('dropped', 0)} dropped)"]
    if spans:
        lines.append(f"{prefix} span tree (count, inclusive / exclusive ms):")
        children: Dict[Optional[str], List[str]] = {}
        for name, stats in spans.items():
            children.setdefault(stats.get("parent"), []).append(name)

        def walk(name: str, depth: int, seen: set) -> None:
            if name in seen:
                return
            seen.add(name)
            stats = spans[name]
            lines.append(
                f"{prefix}   {'  ' * depth}{name:<{max(1, 40 - 2 * depth)}s}"
                f" {stats['count']:>5d}x {stats['total_ms']:>10.2f} /"
                f" {stats['exclusive_ms']:>10.2f}")
            for child in sorted(children.get(name, [])):
                walk(child, depth + 1, seen)

        seen: set = set()
        for root in sorted(children.get(None, [])):
            walk(root, 0, seen)
        for name in spans:  # orphans whose parent never finished
            walk(name, 0, seen)
    counters = summary.get("counters", {})
    if counters:
        lines.append(f"{prefix} top counters:")
        for name, value in sorted(counters.items(), key=lambda kv: -abs(kv[1])):
            lines.append(f"{prefix}   {name:<44s} {value:g}")
    for name, value in sorted(summary.get("gauges", {}).items()):
        lines.append(f"{prefix}   gauge {name:<38s} {value:g}")
    return lines


# ---------------------------------------------------------------------------
# clock-offset fitting (cross-process merge)
# ---------------------------------------------------------------------------

def fit_clock_offset(windows: Sequence[Tuple[float, float, float, float]]
                     ) -> Optional[float]:
    """Fit the child→parent clock offset from enclosing request windows.

    Each window is ``(parent_t0, parent_t1, child_t0, child_t1)``: the
    parent observed the request leave at ``parent_t0`` and the reply
    arrive at ``parent_t1`` (its clock), while the child measured the
    same work as ``[child_t0, child_t1]`` (its clock).  Causality bounds
    the offset: ``parent_t0 <= child_t0 + off`` and ``child_t1 + off <=
    parent_t1``.  The midpoint of the intersection of those feasible
    intervals is returned — by construction every corrected child span
    lands strictly inside its parent window.  Returns ``None`` with no
    windows; an (impossible on one host) empty intersection falls back
    to the midpoint compromise.
    """
    if not windows:
        return None
    lo = max(p0 - c0 for p0, _, c0, _ in windows)
    hi = min(p1 - c1 for _, p1, _, c1 in windows)
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# the module-global fast path (mirrors faults._ACTIVE)
# ---------------------------------------------------------------------------

#: the installed tracer.  One process-wide slot (not thread-local): worker
#: threads the enabling test never owns must record into the same trace.
_ACTIVE: Optional[Tracer] = None


def enable(buffer_size: int = 65536,
           process_name: Optional[str] = None) -> Tracer:
    """Install (and return) a fresh process-global tracer."""
    global _ACTIVE
    _ACTIVE = Tracer(buffer_size=buffer_size, process_name=process_name)
    return _ACTIVE


def disable() -> Optional[Tracer]:
    """Uninstall the tracer; returns it (records stay readable)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def enabled() -> bool:
    return _ACTIVE is not None


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE


@contextmanager
def tracing(buffer_size: int = 65536,
            process_name: Optional[str] = None) -> Iterator[Tracer]:
    """Enable tracing for the duration of the ``with`` block (tests)."""
    global _ACTIVE
    previous = _ACTIVE
    tracer = Tracer(buffer_size=buffer_size, process_name=process_name)
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def span(name: str, **attrs: Any) -> Union[Span, _NoopSpan]:
    """Start a span (context manager).  Disabled: returns the shared
    no-op span — one global load, one ``is None`` test, no allocation."""
    tracer = _ACTIVE
    if tracer is None:
        return NOOP
    return tracer.span(name, attrs)


def timed_span(name: str, **attrs: Any) -> Union[Span, _Stopwatch]:
    """A span that *always* measures wall time (``duration_s``), and is
    additionally recorded when tracing is on — for call sites whose
    report needs the duration regardless (stage timing, serve_eval
    throughput), so reports and traces share one measurement."""
    tracer = _ACTIVE
    if tracer is None:
        return _Stopwatch()
    return tracer.span(name, attrs)


def current_span() -> Optional[Span]:
    tracer = _ACTIVE
    if tracer is None:
        return None
    return tracer.current_span()


def event(name: str, **attrs: Any) -> None:
    tracer = _ACTIVE
    if tracer is None:
        return
    tracer.event(name, attrs)


def counter_add(name: str, value: float = 1) -> None:
    tracer = _ACTIVE
    if tracer is None:
        return
    tracer.counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    tracer = _ACTIVE
    if tracer is None:
        return
    tracer.gauge_set(name, value)


def record_span(name: str, start: float, end: float, **kwargs: Any) -> None:
    tracer = _ACTIVE
    if tracer is None:
        return
    tracer.record_span(name, start, end, **kwargs)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator: wrap every call of the function in a span.

    Disabled, the wrapper costs one global load and an ``is None`` test
    on top of the call itself.
    """
    def decorator(fn: Callable) -> Callable:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = _ACTIVE
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(label):
                return fn(*args, **kwargs)
        return wrapper
    return decorator


# ---------------------------------------------------------------------------
# Chrome trace-event schema validation (CI trace-smoke + tests)
# ---------------------------------------------------------------------------

def validate_chrome_trace(data: Any) -> List[str]:
    """Validate a Chrome trace-event JSON dict; returns a list of errors.

    Checks the invariants Perfetto / ``chrome://tracing`` rely on:
    ``traceEvents`` is a list; every event has a string ``name``, a known
    ``ph``, integer ``pid``/``tid``; non-metadata events carry numeric,
    non-negative ``ts`` in non-decreasing order; complete ``X`` events
    carry a non-negative ``dur``; ``B``/``E`` events are balanced per
    ``(pid, tid)`` track.
    """
    errors: List[str] = []
    if not isinstance(data, dict) or not isinstance(
            data.get("traceEvents"), list):
        return ["trace must be a dict with a 'traceEvents' list"]
    last_ts: Optional[float] = None
    open_begins: Dict[Tuple[int, int], List[str]] = {}
    for index, ev in enumerate(data["traceEvents"]):
        where = f"event {index}"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "M", "C"):
            errors.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing/empty name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where} ({ev.get('name')}): missing {key}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where} ({ev.get('name')}): missing ts")
            continue
        if ts < 0:
            errors.append(f"{where} ({ev.get('name')}): negative ts {ts}")
        if last_ts is not None and ts < last_ts:
            errors.append(f"{where} ({ev.get('name')}): ts {ts} not "
                          f"monotonic (previous {last_ts})")
        last_ts = ts
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where} ({ev.get('name')}): X event needs "
                              f"a non-negative dur, got {dur!r}")
        elif ph == "B":
            open_begins.setdefault((ev.get("pid"), ev.get("tid")),
                                   []).append(ev["name"])
        elif ph == "E":
            stack = open_begins.get((ev.get("pid"), ev.get("tid")))
            if not stack:
                errors.append(f"{where} ({ev.get('name')}): E without B")
            else:
                stack.pop()
    for (pid, tid), stack in open_begins.items():
        if stack:
            errors.append(f"track ({pid}, {tid}): unmatched B events "
                          f"{stack}")
    return errors
