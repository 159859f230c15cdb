"""Sharded multi-process serving: worker processes over one shared arena.

The thread-replica server (:mod:`repro.serve.server`) is capped by the GIL
— N worker threads buy overlap on BLAS-released sections but not N cores.
This module shards serving across *processes* while keeping model state
physical-copy-count at **one**:

* A :class:`ProcessReplicaPool` packs the compressed model's read-only
  arrays — deduplicated codebooks, assignments, masks, and the
  non-compressed parameters/buffers — into a single
  :class:`~repro.serve.shm.ShmArena`.
* Each worker process (:func:`_worker_main`, spawned via the portable
  ``spawn`` start method) attaches the arena, rebuilds the bare
  architecture from a picklable *builder spec*, swaps in the decode-free
  compressed modules directly over the shared views (``np.asarray`` at
  matching dtype is a no-op — zero bytes copied), adopts the shared
  parameters/buffers, and serves batches over a pipe.
* The parent-side :class:`ProcessReplica` is a :class:`~repro.nn.module.
  Module` proxy: ``forward(batch)`` ships the batch to the worker and
  returns its output bit-for-bit.  That makes a process replica a drop-in
  replica for :class:`~repro.serve.server.ModelServer` — the dynamic
  batcher, fault policy, retry/quarantine and drain machinery all apply
  unchanged, and per-worker private memory stays O(activations), not
  O(model).

Failure handling: a dead, hung or pipe-broken worker surfaces as a typed
:class:`~repro.serve.errors.WorkerFault` (never a hang — every receive is
a poll loop with liveness checks), the server's fault policy retries the
batch, and the next forward on that replica re-spawns the worker and
re-attaches it to the arena (re-applying dense degradation if the replica
had been degraded).  The ``serve.worker.spawn`` / ``serve.worker.ipc``
fault points let a seeded :class:`~repro.core.faults.FaultPlan` drive
these paths deterministically, and ``serve.replica.forward`` fires in the
*parent* thread, so existing chaos plans exercise process replicas
unmodified.

Spawn vs fork: ``spawn`` is the default (and the right choice) because
re-spawn happens from the server's worker threads — forking a threaded
process is undefined-behaviour territory — and because it is the only
start method portable across Linux/macOS.  Workers therefore import
:mod:`repro` afresh; model *state* never travels over the pipe, only the
arena name does.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import cpu, telemetry
from repro.core.faults import fault_point
from repro.nn.module import Module
from repro.serve.errors import EngineFault, WorkerFault
from repro.serve.shm import ShmArena

__all__ = ["ProcessReplica", "ProcessReplicaPool", "worker_chaos_plan"]

#: globally unique forward sequence numbers (across replicas and pools), so
#: a traced worker-side span is unambiguously matched to the one parent-side
#: IPC window that observed it
_forward_seq = itertools.count(1)


# -- worker-process side -------------------------------------------------------

def _build_architecture(builder: Tuple) -> Module:
    """Rebuild a bare (uncompressed) model from a picklable builder spec.

    ``("zoo", name, kwargs)`` builds from :data:`repro.nn.models.MODEL_ZOO`;
    ``("scenario", name)`` from a registered pipeline scenario;
    ``("factory", fn, kwargs)`` calls a picklable factory directly.
    """
    kind = builder[0]
    if kind == "zoo":
        from repro.workloads import model_factory

        return model_factory(builder[1])(**(builder[2] or {}))
    if kind == "scenario":
        from repro.pipeline.scenarios import get_scenario

        return get_scenario(builder[1]).build_model()
    if kind == "factory":
        return builder[1](**(builder[2] or {}))
    raise ValueError(f"unknown builder spec kind {kind!r}")


def _build_worker_model(spec: Dict[str, Any], arena: ShmArena) -> Module:
    """One serving-ready model built directly over the arena's views."""
    from repro.core.serialization import (
        DERIVED_PREFIX,
        STATE_PREFIX,
        layers_from_serving_arrays,
    )
    from repro.nn.compressed import swap_to_compressed
    from repro.nn.serve import prepare_for_serving
    from repro.serve.loader import adopt_state_views

    views = arena.views
    layer_views = {name: view for name, view in views.items()
                   if not name.startswith((STATE_PREFIX, DERIVED_PREFIX))}
    layers = layers_from_serving_arrays(arena.meta["serving"], layer_views)
    model = _build_architecture(spec["builder"])
    swapped = swap_to_compressed(model, SimpleNamespace(layers=layers),
                                 mode=spec["mode"])
    # adopt the warmed source engines' derived tables (effective-codeword
    # table, LUT routing tables, dtype caches) from the arena and set each
    # engine to the source's mode — a "lut" engine survives the spawn with
    # zero table rebuilds
    for name, info in (arena.meta.get("derived") or {}).items():
        module = swapped.get(name)
        if module is None:
            continue
        prefix = f"{DERIVED_PREFIX}{name.replace('.', '__')}::"
        derived = {vn[len(prefix):]: view for vn, view in views.items()
                   if vn.startswith(prefix)}
        if derived:
            module.engine.adopt_derived(derived)
        module.engine.mode = info["mode"]
    state = {name[len(STATE_PREFIX):]: view for name, view in views.items()
             if name.startswith(STATE_PREFIX)}
    adopt_state_views(model, state)
    return prepare_for_serving(model, tuple(spec["input_shape"]),
                               spec["max_batch_size"],
                               np.dtype(spec["dtype"]))


def _rss_bytes() -> Optional[int]:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - non-Linux
        pass
    return None


def _worker_info(model: Module, arena: ShmArena) -> Dict[str, Any]:
    """Memory accounting proving the zero-copy claim from inside the worker.

    Walks every parameter, buffer and compressed-engine array of the
    serving model and classifies its backing storage: inside the arena
    (``shared``) or private to this process.  ``private_state_bytes == 0``
    is the sharded tier's contract — model state maps the one shared copy.
    Engine-*derived* state (effective-codeword/LUT tables, dtype caches) is
    accounted separately: when the pool shipped it in the arena,
    ``derived_private_bytes == 0`` proves the worker adopted the warmed
    tables zero-copy instead of rebuilding them; what remains private is
    scratch (im2col buffers, activations), which is what raw ``rss_bytes``
    shows.
    """
    shared = 0
    private = 0
    derived_shared = 0
    derived_private = 0
    seen: set = set()

    def account(array: Optional[np.ndarray], derived: bool = False) -> None:
        nonlocal shared, private, derived_shared, derived_private
        if array is None:
            return
        array = np.asarray(array)
        key = (array.__array_interface__["data"][0], array.nbytes)
        if key in seen:
            return
        seen.add(key)
        owned = arena.owns(array)
        if derived:
            if owned:
                derived_shared += array.nbytes
            else:
                derived_private += array.nbytes
        elif owned:
            shared += array.nbytes
        else:
            private += array.nbytes

    modes: Dict[str, int] = {}
    engines: Dict[str, Dict[str, Any]] = {}
    for _, param in model.named_parameters():
        account(param.value)
    for _, buf in model.named_buffers():
        account(buf)
    for name, module in model.named_modules():
        engine = getattr(module, "engine", None)
        if engine is None:
            continue
        account(engine.codebook.codewords)
        account(engine.assignments)
        account(engine.mask)
        for arr in engine.derived_arrays().values():
            account(arr, derived=True)
        modes[engine.mode] = modes.get(engine.mode, 0) + 1
        stats = engine.serving_stats()
        engines[name] = {key: stats[key] for key in
                         ("mode", "last_mode", "assignments_dtype",
                          "lut_table_bytes", "table_size")}
    return {"pid": os.getpid(), "rss_bytes": _rss_bytes(),
            "arena_shared_bytes": int(shared),
            "private_state_bytes": int(private),
            "derived_shared_bytes": int(derived_shared),
            "derived_private_bytes": int(derived_private),
            "engine_modes": modes,
            "engines": engines,
            "cpu": cpu.policy()}


def _worker_main(spec: Dict[str, Any], conn) -> None:
    """Entry point of one serving worker process.

    Protocol (one reply per request, in order):
    ``("forward", batch)`` -> ``("ok", outputs)`` | ``("err", type, msg,
    code)``; ``("degrade",)`` pins every engine dense; ``("info",)``
    returns :func:`_worker_info`; ``("stop",)`` exits the loop.  Start-up
    failures send ``("fatal", type, msg)`` instead of ``("ready", pid)``.
    """
    from repro.core.precision import (
        set_compute_dtype,
        set_distance_block_bytes,
    )

    arena = None
    try:
        try:
            if spec.get("trace"):
                # worker-local tracer: spans are recorded against this
                # process's perf_counter clock and shipped to the parent on
                # a ("trace",) request, which clock-offset-corrects and
                # merges them into the parent trace
                telemetry.enable(
                    process_name=f"serve-worker pid {os.getpid()}")
            set_compute_dtype(spec["compute_dtype"])
            set_distance_block_bytes(spec["distance_block_bytes"])
            cpu.enter_worker(spec["blas_threads"])
            arena = ShmArena.attach(spec["arena"])
            model = _build_worker_model(spec, arena)
        except Exception as error:  # noqa: BLE001 - reported to the parent
            try:
                conn.send(("fatal", type(error).__name__, str(error)))
            except OSError:
                pass
            return
        conn.send(("ready", os.getpid()))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent is gone; exit quietly
            op = message[0]
            if op == "forward":
                # the parent sends a sequence number while tracing, so the
                # worker-side span can be matched to the parent-side IPC
                # window when clock offsets are fitted
                seq = message[2] if len(message) > 2 else None
                tracer = telemetry.active_tracer()
                try:
                    if tracer is None:
                        outputs = np.asarray(model.forward(message[1]))
                    else:
                        with tracer.span(
                                "serve.worker.forward",
                                {"seq": seq,
                                 "batch": int(np.asarray(
                                     message[1]).shape[0])}):
                            outputs = np.asarray(model.forward(message[1]))
                    reply = ("ok", outputs)
                except Exception as error:  # noqa: BLE001 - shipped as data
                    reply = ("err", type(error).__name__, str(error),
                             getattr(error, "code", None))
            elif op == "trace":
                tracer = telemetry.active_tracer()
                reply = ("ok", tracer.drain() if tracer is not None else [])
            elif op == "degrade":
                for _, module in model.named_modules():
                    engine = getattr(module, "engine", None)
                    if engine is not None:
                        engine.mode = "dense"
                reply = ("ok", None)
            elif op == "info":
                reply = ("ok", _worker_info(model, arena))
            elif op == "stop":
                conn.send(("ok", None))
                return
            else:
                reply = ("err", "ValueError", f"unknown op {op!r}", None)
            try:
                conn.send(reply)
            except OSError:
                return
    finally:
        if arena is not None:
            arena.close()
        try:
            conn.close()
        except OSError:
            pass


# -- parent side ---------------------------------------------------------------

class ProcessReplica(Module):
    """Parent-side proxy for one serving worker process.

    Quacks like a model replica — ``forward(batch)`` returns the worker's
    output bit-for-bit — so :meth:`ModelServer.register` accepts a list of
    these exactly like thread replicas.  All pipe traffic is serialized
    under a per-replica lock (the server binds one worker thread per
    replica anyway; the lock guards stats/health probes from other
    threads).

    Liveness is never assumed: every receive polls with a timeout and
    checks the process, so a SIGKILL'd or hung worker surfaces as a typed
    :class:`WorkerFault` within the request timeout, and the next forward
    transparently re-spawns the worker and re-attaches it to the arena.
    """

    def __init__(self, pool: "ProcessReplicaPool", index: int):
        super().__init__()
        self.index = index
        self.pid: Optional[int] = None
        self.respawns = 0
        self._pool = pool
        self._lock = threading.RLock()
        self._proc = None
        self._conn = None
        self._ready = False
        self._degraded = False
        self._closed = False
        self._launched_once = False
        # tracing: the parent-side IPC windows (t0, t1) each traced forward
        # (keyed by its sequence number) was observed in, for clock-offset
        # fitting when the worker's spans are collected
        self._trace_windows: Dict[int, Tuple[float, float]] = {}

    # -- lifecycle -------------------------------------------------------------
    def _launch_locked(self) -> None:
        fault_point("serve.worker.spawn")
        ctx = self._pool._ctx
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_worker_main,
                           args=(self._pool.spec, child_conn),
                           name=f"serve-worker-{self.index}", daemon=True)
        proc.start()
        child_conn.close()
        self._proc, self._conn = proc, parent_conn
        self._ready = False
        if self._launched_once:
            self.respawns += 1
        self._launched_once = True

    def _await_ready_locked(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill_locked()
                raise WorkerFault(
                    f"worker {self.index} did not come up within {timeout}s")
            if self._conn.poll(min(0.05, remaining)):
                try:
                    message = self._conn.recv()
                except (EOFError, OSError):
                    self._kill_locked()
                    raise WorkerFault(
                        f"worker {self.index} died during startup") from None
                if message[0] == "ready":
                    self._ready = True
                    self.pid = message[1]
                    if self._degraded:
                        # a degraded replica stays degraded across re-spawns
                        self._request_locked(("degrade",), timeout)
                    return
                if message[0] == "fatal":
                    self._kill_locked()
                    raise WorkerFault(
                        f"worker {self.index} failed to start: "
                        f"{message[1]}: {message[2]}")
            elif not self._proc.is_alive() and not self._conn.poll(0.05):
                code = self._proc.exitcode
                self._kill_locked()
                raise WorkerFault(
                    f"worker {self.index} died during startup "
                    f"(exitcode {code})")

    def _alive_locked(self) -> bool:
        return (self._conn is not None and self._proc is not None
                and self._proc.is_alive() and self._ready)

    def _ensure_alive_locked(self) -> None:
        if self._closed:
            raise WorkerFault(f"worker {self.index} pool is closed")
        if self._alive_locked():
            return
        self._kill_locked()
        self._launch_locked()
        self._await_ready_locked(self._pool.spawn_timeout_s)

    def _kill_locked(self) -> None:
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.kill()
            self._proc.join(1.0)
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        self._proc = None
        self._conn = None
        self._ready = False

    # -- request path ----------------------------------------------------------
    def _request_locked(self, message: Tuple, timeout: float) -> Any:
        try:
            self._conn.send(message)
        except (OSError, ValueError) as error:
            self._kill_locked()
            raise WorkerFault(
                f"worker {self.index}: pipe broke on send "
                f"({type(error).__name__})") from error
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill_locked()
                raise WorkerFault(
                    f"worker {self.index} did not answer within {timeout}s")
            try:
                if self._conn.poll(min(0.05, remaining)):
                    return self._conn.recv()
            except (EOFError, OSError) as error:
                self._kill_locked()
                raise WorkerFault(
                    f"worker {self.index} died mid-request "
                    f"({type(error).__name__})") from error
            if not self._proc.is_alive() and not self._conn.poll(0.05):
                code = self._proc.exitcode
                self._kill_locked()
                raise WorkerFault(
                    f"worker {self.index} died mid-request "
                    f"(exitcode {code})")

    def forward(self, x: np.ndarray) -> np.ndarray:
        with self._lock:
            self._ensure_alive_locked()
            fault_point("serve.worker.ipc")
            tracer = telemetry.active_tracer()
            if tracer is None:
                reply = self._request_locked(("forward", np.asarray(x)),
                                             self._pool.request_timeout_s)
            else:
                # the span *is* the parent-side window: send -> reply on
                # the parent clock, guaranteed to enclose the worker-side
                # forward span once the clock offset is fitted from it
                seq = next(_forward_seq)
                with tracer.span("serve.worker.ipc.forward",
                                 {"worker": self.index, "seq": seq}):
                    t0 = time.perf_counter()
                    reply = self._request_locked(
                        ("forward", np.asarray(x), seq),
                        self._pool.request_timeout_s)
                    t1 = time.perf_counter()
                self._trace_windows[seq] = (t0, t1)
        if reply[0] == "ok":
            return reply[1]
        _, type_name, message, code = reply
        if code == EngineFault.code:
            # re-raise as the typed engine fault so the server's graceful
            # dense-degradation path fires for process replicas too
            raise EngineFault(message)
        raise WorkerFault(f"worker {self.index} forward failed: "
                          f"{type_name}: {message}")

    def degrade_to_dense(self) -> None:
        """Pin the worker's engines dense; sticky across re-spawns.

        The server's ``_degrade`` calls this instead of walking our (empty)
        module tree.  An unreachable worker is fine — the flag is re-applied
        during the re-spawn handshake.
        """
        with self._lock:
            self._degraded = True
            if self._alive_locked():
                try:
                    self._request_locked(("degrade",),
                                         self._pool.request_timeout_s)
                except WorkerFault:
                    pass  # re-spawn will re-apply

    def info(self) -> Dict[str, Any]:
        """The worker's memory/mode report (spawning it if needed)."""
        with self._lock:
            self._ensure_alive_locked()
            reply = self._request_locked(("info",),
                                         self._pool.request_timeout_s)
        if reply[0] != "ok":
            raise WorkerFault(f"worker {self.index} info failed: {reply}")
        report = dict(reply[1])
        report["respawns"] = self.respawns
        return report

    def collect_trace(self) -> int:
        """Pull the worker's recorded spans into the parent trace.

        Drains the worker's trace buffer over the pipe, fits the
        worker->parent clock offset from the IPC windows observed around
        each forward (:func:`repro.core.telemetry.fit_clock_offset` — the
        fit guarantees every corrected worker span lands strictly inside
        its parent-side window), and merges the corrected records.  A dead
        worker, a broken pipe, or spans with no matched window drop the
        records cleanly — the parent trace is never corrupted.  Returns
        the number of records merged.
        """
        tracer = telemetry.active_tracer()
        if tracer is None:
            return 0
        with self._lock:
            if not self._alive_locked():
                self._trace_windows.clear()
                return 0  # SIGKILL'd worker: its partial spans are dropped
            try:
                reply = self._request_locked(
                    ("trace",), self._pool.request_timeout_s)
            except WorkerFault:
                self._trace_windows.clear()
                return 0
            windows = dict(self._trace_windows)
            self._trace_windows.clear()
        if reply[0] != "ok" or not reply[1]:
            return 0
        records = reply[1]
        matched = []
        for record in records:
            seq = (record.get("args") or {}).get("seq")
            window = windows.get(seq)
            if window is not None and record.get("ph") == "X":
                matched.append((window[0], window[1], record["ts"],
                                record["ts"] + record["dur"]))
        offset = telemetry.fit_clock_offset(matched)
        if offset is None:
            return 0  # no forward observed both sides: cannot place them
        return tracer.merge(records, clock_offset_s=offset,
                            process_name=f"serve-worker-{self.index}")

    def kill(self) -> None:
        """SIGKILL the worker (chaos/testing); next forward re-spawns it.

        Joins the corpse so the kill is observable the moment this returns
        — without it the next ``forward`` can race the still-dying process
        and surface a :class:`WorkerFault` instead of re-spawning.
        """
        with self._lock:
            if self._proc is not None and self._proc.is_alive():
                self._proc.kill()
                self._proc.join(5.0)

    def close(self, timeout: float = 5.0) -> None:
        with self._lock:
            self._closed = True
            if self._alive_locked():
                try:
                    self._request_locked(("stop",), timeout)
                except WorkerFault:
                    pass
            if self._proc is not None:
                self._proc.join(timeout)
            self._kill_locked()


class ProcessReplicaPool:
    """N worker processes serving one compressed model from one arena.

    Builds the shared-memory arena from the compressed model, spawns the
    workers (concurrently — all launched, then all awaited), and exposes
    ``.replicas`` — a list of :class:`ProcessReplica` proxies to register
    with a :class:`~repro.serve.server.ModelServer` exactly like thread
    replicas::

        pool = ProcessReplicaPool(compressed, ("zoo", "resnet18", {}),
                                  input_shape=(3, 16, 16), workers=4)
        with pool, ModelServer() as server:
            server.register("resnet18", pool.replicas,
                            input_shape=pool.input_shape)

    ``builder`` is the picklable architecture recipe workers rebuild from
    (see :func:`_build_architecture`); ``model`` optionally names the live
    (possibly fine-tuned) model whose non-compressed parameters/buffers go
    into the arena — it defaults to ``compressed.model``.

    ``close()`` stops the workers, then detaches *and unlinks* the arena;
    the arena additionally unlinks via ``atexit`` and survives worker
    SIGKILLs (see :mod:`repro.serve.shm`), so no ``/dev/shm`` segment
    leaks.
    """

    def __init__(self, compressed: Any, builder: Tuple,
                 input_shape: Sequence[int], workers: int = 2,
                 mode: str = "auto", max_batch_size: int = 8,
                 dtype=np.float64, start_method: str = "spawn",
                 spawn_timeout_s: float = 120.0,
                 request_timeout_s: float = 60.0,
                 model: Optional[Module] = None,
                 arena_name: Optional[str] = None):
        from repro.core.precision import compute_dtype, distance_block_bytes
        from repro.core.serialization import (
            STATE_PREFIX,
            derived_serving_arrays,
            serving_arrays,
            serving_state_arrays,
        )

        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.input_shape = tuple(input_shape)
        self.dtype = np.dtype(dtype)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.request_timeout_s = float(request_timeout_s)
        self._closed = False

        manifest, arrays = serving_arrays(compressed)
        state_source = model if model is not None else compressed.model
        # when the source is a live serving model (engines swapped in), warm
        # it at the serving shape so its engines build their tables, then
        # ship that derived state in the arena — workers adopt it zero-copy
        # and inherit each engine's mode (including "lut") instead of
        # re-deriving anything
        derived_meta, derived = derived_serving_arrays(state_source,
                                                       compressed)
        if derived:
            from repro.nn.serve import prepare_for_serving

            prepare_for_serving(state_source, self.input_shape,
                                int(max_batch_size), self.dtype)
            derived_meta, derived = derived_serving_arrays(state_source,
                                                           compressed)
            arrays.update(derived)
        for key, value in serving_state_arrays(state_source,
                                               compressed).items():
            arrays[STATE_PREFIX + key] = value
        self.arena = ShmArena.create(arrays,
                                     meta={"serving": manifest,
                                           "derived": derived_meta},
                                     name=arena_name)
        self._ctx = multiprocessing.get_context(start_method)
        self.spec: Dict[str, Any] = {
            "arena": self.arena.name,
            "builder": builder,
            "mode": mode,
            "input_shape": self.input_shape,
            "max_batch_size": int(max_batch_size),
            "dtype": self.dtype.name,
            "compute_dtype": compute_dtype().name,
            "distance_block_bytes": distance_block_bytes(),
            # each worker's share of the cores for its BLAS calls
            "blas_threads": cpu.worker_blas_threads(workers),
            # workers record their own spans when the parent is tracing at
            # pool-construction time (enable tracing before building pools)
            "trace": telemetry.enabled(),
        }
        self.replicas: List[ProcessReplica] = [
            ProcessReplica(self, index) for index in range(workers)]
        try:
            for replica in self.replicas:
                with replica._lock:
                    replica._launch_locked()
            for replica in self.replicas:
                with replica._lock:
                    replica._await_ready_locked(self.spawn_timeout_s)
        except BaseException:
            self.close()
            raise

    def register_with(self, server, name: str, policy=None,
                      fault_policy=None, **kwargs: Any) -> None:
        server.register(name, self.replicas, policy=policy,
                        fault_policy=fault_policy,
                        input_shape=self.input_shape, dtype=self.dtype,
                        **kwargs)

    def info(self) -> Dict[str, Any]:
        """Arena + per-worker memory/health report."""
        workers = []
        for replica in self.replicas:
            try:
                workers.append(replica.info())
            except WorkerFault as error:
                workers.append({"pid": replica.pid, "error": str(error),
                                "respawns": replica.respawns})
        return {
            "arena": {"name": self.arena.name,
                      "nbytes": int(self.arena.nbytes),
                      "refcount": int(self.arena.refcount())},
            "workers": workers,
            "respawns": sum(r.respawns for r in self.replicas),
        }

    def collect_traces(self) -> int:
        """Merge every live worker's spans into the parent trace."""
        return sum(replica.collect_trace() for replica in self.replicas)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.spec.get("trace") and telemetry.enabled():
            # last chance to pull worker-side spans before the workers stop
            self.collect_traces()
        for replica in self.replicas:
            replica.close()
        self.arena.close()

    def __enter__(self) -> "ProcessReplicaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def worker_chaos_plan(rate: float, seed: int = 0):
    """Chaos mix aimed at the process tier's own failure surface.

    Splits ``rate`` between spawn failures and mid-request pipe breaks
    (both raising :class:`WorkerFault` via the ``worker`` error tag), on
    top of which the generic ``serving_chaos_plan`` still applies — its
    ``serve.replica.forward`` point fires in the parent thread for process
    replicas too.
    """
    from repro.core.faults import FaultPlan, FaultRule

    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must be in [0, 1], got {rate}")
    return FaultPlan([
        FaultRule("serve.worker.ipc", probability=rate / 2, error="worker"),
        FaultRule("serve.worker.spawn", probability=rate / 2,
                  error="worker"),
    ], seed=seed)
