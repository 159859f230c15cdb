"""The dynamic-batching model server over compressed-domain inference.

:class:`ModelServer` holds a registry of named models, each with its own
:class:`~repro.serve.batcher.DynamicBatcher`, batching policy, worker pool
and :class:`~repro.serve.metrics.ServingMetrics`.  Workers pull coalesced
batches off the queue, stack the request payloads, forward only the live
rows and scatter the output rows back to the per-request futures.  The
forward kernels are batch-invariant (see :mod:`repro.nn.serve`), so a
request's bits do not depend on how it was coalesced.

Models are served from the compressed-domain modules of
:mod:`repro.nn.compressed` (the loader swaps them in), so a running server
never materialises dense weights per request — batching amortises the
remaining per-call Python/layer overhead across coalesced requests, which
is where the >=1.5x throughput over single-image serving comes from.

Worker pools: a model registered with ``replicas=[m1, m2]`` gets one worker
thread per replica, all draining the same queue.  Each worker runs one batch
at a time and takes whatever is queued when it asks (work-conserving
dispatch), so requests coalesce only while every replica is busy.  Replicas
must be independent model objects — the engines' caches and im2col buffers
are not thread-safe, so a model instance is never shared between workers.

Failure handling (see :mod:`repro.serve.errors` for the taxonomy) is
governed by a per-model :class:`FaultPolicy`:

* **deadlines** — a request admitted with a deadline is resolved with
  :class:`~repro.serve.errors.RequestTimeout` once it elapses, whether the
  request is still queued, mid-retry, or waiting out a quarantine.
* **retry with backoff** — a failed batch puts its requests back at the
  front of the queue after an exponential backoff; with multiple replicas
  the retry is naturally picked up by a *different* (healthy) worker.  The
  budget is bounded: a request is resolved with
  :class:`~repro.serve.errors.RequestFailed` after ``max_retries``
  re-executions.
* **quarantine / re-warm** — a replica failing ``quarantine_after``
  consecutive batches is benched: its worker stops taking work, waits
  ``rewarm_after_ms``, re-warms the model with a synthetic forward and
  re-admits itself (counted as a restart).  While benched it keeps expiring
  deadlined requests so nothing hangs even with *every* replica benched.
* **graceful degradation** — an :class:`~repro.serve.errors.EngineFault`
  (a compressed engine failing) flips the replica's engines to the dense
  reconstruct path — the same bits for engines already on dense, within
  float re-association for ``lut``-pinned ones, slower — and re-runs the
  batch instead of failing it.

All of it is instrumented with the ``serve.replica.*`` fault points of
:mod:`repro.core.faults`, so a seeded :class:`FaultPlan` can drive every
one of these paths deterministically (the chaos CI gate does exactly that).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import telemetry
from repro.core.faults import FaultPlan, FaultRule, fault_point
from repro.nn.module import Module
from repro.nn.serve import prepare_for_serving
from repro.serve.batcher import BatchPolicy, DynamicBatcher, Request
from repro.serve.errors import (
    EngineFault,
    ReplicaUnavailable,
    RequestFailed,
    RequestTimeout,
    ServerClosed,
    ServerOverloaded,
)
from repro.serve.metrics import ServingMetrics, StatsRegistry


@dataclass(frozen=True)
class FaultPolicy:
    """Per-model failure-handling knobs.

    ``max_retries``
        Re-executions granted to a request after its first failed attempt;
        past the budget it resolves with :class:`RequestFailed`.
    ``backoff_initial_ms`` / ``backoff_multiplier``
        Exponential backoff between retry attempts.
    ``deadline_ms``
        Per-request wall-clock budget from admission; ``None`` disables
        deadlines (requests then only resolve by success, retry exhaustion
        or shutdown).
    ``quarantine_after``
        Consecutive failed batches before a replica is benched; ``0``
        disables quarantine.
    ``rewarm_after_ms``
        How long a benched replica sits out before re-warming.
    ``degrade_on_engine_fault``
        On :class:`EngineFault`, switch the replica's compressed engines to
        the dense reconstruct path and re-run the batch (bit-identical
        outputs) instead of counting a failure.
    ``reject_when_unavailable``
        With every replica quarantined, reject new submissions with
        :class:`ReplicaUnavailable` instead of queueing them until a
        re-warm (deadlines still bound the queued wait either way).
    """

    max_retries: int = 2
    backoff_initial_ms: float = 2.0
    backoff_multiplier: float = 2.0
    deadline_ms: Optional[float] = None
    quarantine_after: int = 3
    rewarm_after_ms: float = 50.0
    degrade_on_engine_fault: bool = True
    reject_when_unavailable: bool = False

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_initial_ms < 0:
            raise ValueError("backoff_initial_ms must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        if self.quarantine_after < 0:
            raise ValueError("quarantine_after must be >= 0")
        if self.rewarm_after_ms < 0:
            raise ValueError("rewarm_after_ms must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return (self.backoff_initial_ms / 1e3
                * self.backoff_multiplier ** max(0, attempt - 1))


class _ReplicaState:
    """Supervision record of one replica: health + failure streak."""

    def __init__(self, model: Module, index: int):
        self.model = model
        self.index = index
        self.consecutive_failures = 0
        self.healthy = True
        self.degraded = False


#: serving_stats keys surfaced per layer in the server's engine report
_ENGINE_STAT_KEYS = ("mode", "last_mode", "assignments_dtype",
                     "lut_table_bytes", "table_size")


def replica_engine_stats(replica: Module) -> Dict[str, Any]:
    """Per-layer compressed-engine stats of one serving replica.

    Thread replicas are walked in-process; process-replica proxies (which
    expose ``info()``) report from inside their worker, so the modes shown
    are the ones actually pinned in the serving process.  Models without
    compressed engines yield ``{}``.
    """
    info_fn = getattr(replica, "info", None)
    if callable(info_fn):
        try:
            return dict(info_fn().get("engines", {}))
        except Exception:  # noqa: BLE001 - stats must never take a server down
            return {}
    engines: Dict[str, Any] = {}
    for name, module in replica.named_modules():
        engine = getattr(module, "engine", None)
        if engine is None:
            continue
        stats = engine.serving_stats()
        engines[name] = {key: stats[key] for key in _ENGINE_STAT_KEYS}
    return engines


class _ModelEntry:
    """Internal registry record: queue + replicas + workers + metrics."""

    def __init__(self, name: str, replicas: Sequence[Module],
                 policy: BatchPolicy,
                 fault_policy: FaultPolicy,
                 metrics: Optional[ServingMetrics] = None,
                 input_shape: Optional[Tuple[int, ...]] = None,
                 dtype=np.float64):
        self.name = name
        self.policy = policy
        self.fault_policy = fault_policy
        self.metrics = metrics
        self.input_shape = None if input_shape is None else tuple(input_shape)
        self.dtype = np.dtype(dtype)
        self.batcher = DynamicBatcher(policy)
        self.threads: List[threading.Thread] = []
        self.replica_states = [_ReplicaState(m, i)
                               for i, m in enumerate(replicas)]
        self.health_lock = threading.Lock()

    @property
    def replicas(self) -> List[Module]:
        return [state.model for state in self.replica_states]

    def healthy_replicas(self) -> int:
        with self.health_lock:
            return sum(1 for s in self.replica_states if s.healthy)


def serving_chaos_plan(rate: float, seed: int = 0,
                       delay_ms: float = 2.0) -> FaultPlan:
    """The canonical chaos mix for the serving tier.

    ``rate`` is the total per-forward injection probability, split across
    replica crashes (1/2), engine faults that exercise the dense-degradation
    path (1/4) and slow forwards (1/4).  Used by the chaos CI gate, the
    fault-mode serving benchmark and ``python -m repro.serve --faults``.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must be in [0, 1], got {rate}")
    return FaultPlan([
        FaultRule("serve.replica.forward", probability=rate / 2),
        FaultRule("serve.replica.forward", probability=rate / 4,
                  error="engine"),
        FaultRule("serve.replica.forward", probability=rate / 4,
                  kind="delay", delay_ms=delay_ms),
    ], seed=seed)


class ModelServer:
    """Multi-model, dynamically-batching inference server.

    >>> server = ModelServer()
    >>> server.register("resnet", model, input_shape=(3, 16, 16),
    ...                 policy=BatchPolicy(max_batch_size=8),
    ...                 fault_policy=FaultPolicy(max_retries=3,
    ...                                          deadline_ms=500.0))
    >>> with server:                      # starts workers, joins on exit
    ...     out = server.predict("resnet", image)          # blocking
    ...     handle = server.submit("resnet", image)        # async
    ...     out2 = handle.result(timeout=5.0)
    >>> server.stats_report()["models"]["resnet"]["latency_ms"]["p95"]
    """

    def __init__(self, policy: Optional[BatchPolicy] = None,
                 fault_policy: Optional[FaultPolicy] = None,
                 stats_window: int = 4096):
        self.default_policy = policy or BatchPolicy()
        self.default_fault_policy = fault_policy or FaultPolicy()
        self.stats_window = stats_window
        self._entries: Dict[str, _ModelEntry] = {}
        self._stats = StatsRegistry()
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._closing = threading.Event()  # cuts re-warm waits short
        self._drain = True  # False during a no-drain shutdown: workers fail
                            # popped batches instead of executing them

    # -- registry -------------------------------------------------------------
    def register(self, name: str, model: Union[Module, Sequence[Module]],
                 policy: Optional[BatchPolicy] = None,
                 fault_policy: Optional[FaultPolicy] = None,
                 input_shape: Optional[Tuple[int, ...]] = None,
                 dtype=np.float64, warmup: bool = True) -> None:
        """Add a model (or a list of replicas — one worker thread each).

        ``input_shape`` enables submit-time shape validation and, together
        with ``warmup``, pre-builds every replica's serving caches at
        ``max_batch_size`` before the first request lands.
        ``fault_policy`` overrides the server-wide retry/deadline/quarantine
        defaults for this model.
        """
        replicas = [model] if isinstance(model, Module) else list(model)
        if not replicas:
            raise ValueError("register needs at least one model replica")
        if len(set(map(id, replicas))) != len(replicas):
            raise ValueError("replicas must be distinct model objects "
                             "(engines/buffers are not thread-safe)")
        with self._lock:
            if self._closed:
                raise ServerClosed("server is shut down")
            if name in self._entries:
                raise ValueError(f"model {name!r} is already registered")
        # warm *before* publishing the entry: a replica that cannot forward
        # a full batch must fail this call, not linger as a
        # registered model whose queue no worker ever drains
        entry = _ModelEntry(name, replicas, policy or self.default_policy,
                            fault_policy or self.default_fault_policy,
                            input_shape=input_shape, dtype=dtype)
        if warmup and entry.input_shape is not None:
            for replica in entry.replicas:
                prepare_for_serving(replica, entry.input_shape,
                                    entry.policy.max_batch_size, entry.dtype)
        else:
            for replica in entry.replicas:
                replica.eval()
        with self._lock:
            if self._closed:
                raise ServerClosed("server is shut down")
            if name in self._entries:
                raise ValueError(f"model {name!r} is already registered")
            entry.metrics = self._stats.for_model(name, self.stats_window)
            self._entries[name] = entry
            if self._started:
                self._start_entry(entry)

    def models(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def _entry(self, name: Optional[str]) -> _ModelEntry:
        with self._lock:
            if name is None:
                if len(self._entries) != 1:
                    raise KeyError(
                        "model name required when serving "
                        f"{len(self._entries)} models: {sorted(self._entries)}")
                return next(iter(self._entries.values()))
            try:
                return self._entries[name]
            except KeyError:
                raise KeyError(f"unknown model {name!r}; registered: "
                               f"{sorted(self._entries)}") from None

    # -- lifecycle ------------------------------------------------------------
    def _start_entry(self, entry: _ModelEntry) -> None:
        for state in entry.replica_states:
            thread = threading.Thread(
                target=self._worker_loop, args=(entry, state),
                name=f"serve-{entry.name}-{state.index}", daemon=True)
            entry.threads.append(thread)
            thread.start()

    def start(self) -> "ModelServer":
        with self._lock:
            if self._closed:
                raise ServerClosed("server is shut down")
            if not self._started:
                self._started = True
                for entry in self._entries.values():
                    self._start_entry(entry)
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop admission and join the workers.

        ``drain=True`` lets queued requests finish — including requests in
        retry backoff and replicas mid-quarantine (the re-warm wait is cut
        short); every queued request resolves with a result or a typed
        error.  ``drain=False`` fails every still-queued request with
        :class:`ServerClosed` (a batch a worker already popped for execution
        still completes — "queued" requests are the deterministic set here,
        not in-flight ones).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._drain = drain
            entries = list(self._entries.values())
        self._closing.set()
        for entry in entries:
            entry.batcher.close()
        if not drain:
            # workers woken by close() observe _drain=False and fail their
            # batches too, so this loop and the workers never both execute
            # the same request — whoever pops it fails it
            for entry in entries:
                while True:
                    batch = entry.batcher.next_batch()
                    if not batch:
                        break
                    for request in batch:
                        request.set_exception(ServerClosed("server shut down"))
        for entry in entries:
            for thread in entry.threads:
                thread.join(timeout)

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- request path ---------------------------------------------------------
    def submit(self, name: Optional[str], x: np.ndarray,
               timeout: Optional[float] = None,
               deadline_ms: Optional[float] = None) -> Request:
        """Enqueue one request; returns its future-style handle.

        ``name=None`` routes to the only registered model.  Raises
        :class:`~repro.serve.errors.ServerOverloaded` when the queue is
        full under the shed policy (``timeout`` bounds the wait under the
        block policy).  ``deadline_ms`` overrides the model's fault-policy
        deadline for this request.
        """
        entry = self._entry(name)
        payload = np.asarray(x, dtype=entry.dtype)
        if entry.input_shape is not None and payload.shape != entry.input_shape:
            raise ValueError(
                f"model {entry.name!r} expects input shape {entry.input_shape}, "
                f"got {payload.shape}")
        if (entry.fault_policy.reject_when_unavailable
                and entry.healthy_replicas() == 0):
            entry.metrics.record_shed()
            telemetry.event("serve.shed", model=entry.name,
                            reason="replicas_unavailable")
            raise ReplicaUnavailable(
                f"model {entry.name!r}: all {len(entry.replica_states)} "
                "replicas are quarantined")
        if deadline_ms is None:
            deadline_ms = entry.fault_policy.deadline_ms
        deadline_s = None if deadline_ms is None else deadline_ms / 1e3
        try:
            return entry.batcher.submit(payload, timeout=timeout,
                                        deadline_s=deadline_s)
        except ServerOverloaded:
            entry.metrics.record_shed()
            telemetry.event("serve.shed", model=entry.name,
                            reason="queue_full")
            raise

    def predict(self, name: Optional[str], x: np.ndarray,
                timeout: Optional[float] = 60.0) -> np.ndarray:
        """Blocking single-request convenience wrapper around :meth:`submit`."""
        return self.submit(name, x).result(timeout)

    def predict_many(self, name: Optional[str], inputs: np.ndarray,
                     timeout: Optional[float] = 60.0) -> np.ndarray:
        """Submit every row of ``inputs`` and gather outputs in order.

        This is the client-side fan-out that gives the batcher something to
        coalesce — all requests are enqueued before the first result is
        awaited.
        """
        handles = [self.submit(name, row) for row in np.asarray(inputs)]
        return np.stack([handle.result(timeout) for handle in handles])

    # -- worker ---------------------------------------------------------------
    def _worker_loop(self, entry: _ModelEntry, state: _ReplicaState) -> None:
        while True:
            batch = entry.batcher.next_batch()
            if batch is None:
                return
            if not self._drain:  # no-drain shutdown: fail, don't execute
                for request in batch:
                    request.set_exception(ServerClosed("server shut down"))
                continue
            live = self._drop_expired(entry, batch)
            if not live:
                continue
            if self._execute(entry, state, live):
                state.consecutive_failures = 0
            elif (entry.fault_policy.quarantine_after > 0
                  and state.consecutive_failures
                  >= entry.fault_policy.quarantine_after):
                self._quarantine_and_rewarm(entry, state)

    def _drop_expired(self, entry: _ModelEntry,
                      batch: List[Request]) -> List[Request]:
        """Resolve deadline-expired requests; return the still-live rest."""
        now = time.perf_counter()
        live = []
        for request in batch:
            if request.expired(now):
                entry.metrics.record_timeout()
                telemetry.event("serve.timeout", model=entry.name,
                                request=request.id, phase="queued")
                request.set_exception(RequestTimeout(
                    f"request {request.id} missed its deadline after "
                    f"{now - request.enqueued_at:.3f}s "
                    f"({request.attempts} failed attempts)"))
            else:
                live.append(request)
        return live

    def _forward_replica(self, entry: _ModelEntry, state: _ReplicaState,
                         stacked: np.ndarray) -> np.ndarray:
        fault_point("serve.replica.forward")
        return np.asarray(state.model.forward(stacked))

    def _degrade(self, entry: _ModelEntry, state: _ReplicaState) -> None:
        """Pin every compressed engine of this replica to the dense
        reconstruct path.  Engines already on dense (every ``auto`` layer)
        keep their exact bits; a ``lut``-pinned replica moves to
        outputs within float re-association of its LUT outputs (both paths
        sum the same products, in a different order).  Degraded serves are
        slower, never failed."""
        if state.degraded:
            return
        state.degraded = True
        telemetry.event("serve.degrade", model=entry.name,
                        replica=state.index)
        degrade = getattr(state.model, "degrade_to_dense", None)
        if degrade is not None:
            # process replicas (and any other proxy) own their degradation
            degrade()
            return
        for _, module in state.model.named_modules():
            engine = getattr(module, "engine", None)
            if engine is not None:
                engine.mode = "dense"

    def _execute(self, entry: _ModelEntry, state: _ReplicaState,
                 batch: List[Request]) -> bool:
        """Run one batch on one replica; resolve or re-route its requests.

        Returns ``True`` on success (results delivered), ``False`` when the
        batch failed and its requests were routed to retry / typed errors.
        """
        started = time.perf_counter()
        # hot path: branch on the tracer once so the disabled run never
        # allocates an attribute dict or a span object per batch
        tracer = telemetry.active_tracer()
        batch_span = (tracer.span("serve.batch",
                                  {"model": entry.name,
                                   "replica": state.index,
                                   "batch_size": len(batch)})
                      if tracer is not None else telemetry.NOOP)
        with batch_span:
            try:
                with (tracer.span("serve.batch.assemble")
                      if tracer is not None else telemetry.NOOP):
                    stacked = np.stack([request.payload for request in batch])
                forward_span = (tracer.span("serve.forward",
                                            {"replica": state.index})
                                if tracer is not None else telemetry.NOOP)
                try:
                    with forward_span:
                        outputs = self._forward_replica(entry, state, stacked)
                except EngineFault:
                    if not entry.fault_policy.degrade_on_engine_fault:
                        raise
                    self._degrade(entry, state)
                    with (tracer.span("serve.forward",
                                      {"replica": state.index,
                                       "degraded": True})
                          if tracer is not None else telemetry.NOOP):
                        outputs = self._forward_replica(entry, state, stacked)
                    entry.metrics.record_degraded(len(batch))
            except Exception as error:  # noqa: BLE001 - routed per request below
                self._handle_batch_failure(entry, state, batch, error)
                return False
            entry.metrics.record_batch(len(batch))
            for row, request in enumerate(batch):
                request.set_result(outputs[row])
                entry.metrics.record_request(
                    latency_s=request.completed_at - request.enqueued_at,
                    queue_wait_s=started - request.enqueued_at)
        if tracer is not None:
            tracer.counter_add("serve.batches")
            tracer.counter_add("serve.requests.completed", len(batch))
            for request in batch:
                # reconstruct the request's phases on the submitting
                # thread's track: enqueue -> queue-wait -> execute
                tid, thread = request.trace_tid, "client"
                if tid is None:
                    tid, thread = None, None
                tracer.record_span(
                    "serve.request", request.enqueued_at,
                    request.completed_at, tid=tid, thread=thread,
                    attrs={"id": request.id, "model": entry.name,
                           "attempts": request.attempts})
                tracer.record_span("serve.request.queue_wait",
                                   request.enqueued_at, started,
                                   tid=tid, thread=thread)
                tracer.record_span("serve.request.execute", started,
                                   request.completed_at, tid=tid,
                                   thread=thread)
        return True

    def _handle_batch_failure(self, entry: _ModelEntry, state: _ReplicaState,
                              batch: List[Request],
                              error: BaseException) -> None:
        """Route every request of a failed batch: retry, timeout, or fail."""
        policy = entry.fault_policy
        entry.metrics.record_replica_failure()
        state.consecutive_failures += 1
        now = time.perf_counter()
        for request in batch:
            request.attempts += 1
            if request.expired(now):
                entry.metrics.record_timeout()
                telemetry.event("serve.timeout", model=entry.name,
                                request=request.id, phase="retry",
                                attempts=request.attempts)
                request.set_exception(RequestTimeout(
                    f"request {request.id} missed its deadline during retry "
                    f"(attempt {request.attempts}: "
                    f"{type(error).__name__}: {error})"))
            elif request.attempts > policy.max_retries:
                entry.metrics.record_failure()
                telemetry.event("serve.failed", model=entry.name,
                                request=request.id,
                                attempts=request.attempts,
                                error=type(error).__name__)
                request.set_exception(RequestFailed(
                    f"request {request.id} failed after {request.attempts} "
                    f"attempts; last error: {type(error).__name__}: {error}",
                    cause=error, attempts=request.attempts))
            else:
                entry.metrics.record_retry()
                telemetry.event("serve.retry", model=entry.name,
                                request=request.id,
                                attempts=request.attempts,
                                error=type(error).__name__)
                entry.batcher.requeue_later(
                    request, policy.backoff_s(request.attempts))

    def _quarantine_and_rewarm(self, entry: _ModelEntry,
                               state: _ReplicaState) -> None:
        """Bench a repeatedly-failing replica, then re-warm and re-admit it.

        While benched, the worker keeps sweeping deadline-expired requests
        out of the queue so requests never hang even when every replica of
        the model is quarantined at once.  A shutdown cuts the bench wait
        short: the worker re-admits itself immediately and helps drain
        (bounded retries guarantee the drain still terminates if the fault
        persists).
        """
        policy = entry.fault_policy
        with entry.health_lock:
            state.healthy = False
        entry.metrics.record_quarantine()
        telemetry.event("serve.quarantine", model=entry.name,
                        replica=state.index,
                        consecutive_failures=state.consecutive_failures)
        rewarm_s = policy.rewarm_after_ms / 1e3
        while True:
            waited = 0.0
            while waited < rewarm_s and not self._closing.is_set():
                step = min(0.02, rewarm_s - waited)
                self._closing.wait(step)
                waited += step
                for request in entry.batcher.fail_expired():
                    entry.metrics.record_timeout()
                    request.set_exception(RequestTimeout(
                        f"request {request.id} missed its deadline while "
                        f"every healthy replica was busy or quarantined"))
            try:
                fault_point("serve.replica.warmup")
                if entry.input_shape is not None:
                    warm = np.zeros(
                        (entry.policy.max_batch_size, *entry.input_shape),
                        dtype=entry.dtype)
                    state.model.forward(warm)
            except Exception:  # noqa: BLE001 - stay benched, try again
                if self._closing.is_set():
                    break  # help drain regardless; retries bound the damage
                continue
            break
        with entry.health_lock:
            state.healthy = True
        state.consecutive_failures = 0
        entry.metrics.record_restart()
        telemetry.event("serve.restart", model=entry.name,
                        replica=state.index)

    # -- stats ----------------------------------------------------------------
    def health_report(self) -> Dict[str, Any]:
        """Per-model replica supervision state (healthy/degraded/streaks)."""
        with self._lock:
            entries = list(self._entries.items())
        report = {}
        for name, entry in entries:
            with entry.health_lock:
                report[name] = {
                    "replicas": [
                        {"index": s.index, "healthy": s.healthy,
                         "degraded": s.degraded,
                         "consecutive_failures": s.consecutive_failures}
                        for s in entry.replica_states
                    ],
                    "healthy": sum(1 for s in entry.replica_states
                                   if s.healthy),
                }
        return report

    def stats_report(self) -> Dict[str, Any]:
        """JSON-able server stats: per-model latency/throughput/batch mix
        plus the per-layer engine report (resolved mode, LUT table bytes)."""
        with self._lock:
            entries = list(self._entries.items())
        for name, entry in entries:
            engines = replica_engine_stats(entry.replicas[0])
            if engines:
                self._stats.set_info(name, {"engines": engines})
        report = self._stats.report()
        with self._lock:
            report["queues"] = {name: entry.batcher.qsize()
                                for name, entry in self._entries.items()}
            report["policies"] = {
                name: {
                    "max_batch_size": entry.policy.max_batch_size,
                    "max_wait_ms": entry.policy.max_wait_ms,
                    "max_queue_size": entry.policy.max_queue_size,
                    "overload": entry.policy.overload,
                    "workers": len(entry.replica_states),
                    "max_retries": entry.fault_policy.max_retries,
                    "deadline_ms": entry.fault_policy.deadline_ms,
                    "quarantine_after": entry.fault_policy.quarantine_after,
                }
                for name, entry in self._entries.items()
            }
        report["health"] = self.health_report()
        return report
