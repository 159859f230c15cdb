"""The serving tier's error taxonomy.

Every way a request can fail maps to exactly one typed error with a stable
``code``, so clients (and the JSONL CLI) can branch on machine-readable
codes instead of parsing messages, and the chaos gate can assert that every
injected fault surfaced as *some* typed error rather than a hang::

    overloaded    queue full under the shed policy (request never admitted)
    closed        submitted to / drained out of a shut-down server
    timeout       the per-request deadline elapsed before a healthy replica
                  finished it
    failed        the request's retry budget ran out; carries the last cause
    unavailable   every replica of the model is quarantined and the fault
                  policy rejects rather than queues
    engine_fault  a compressed inference engine faulted (triggers graceful
                  degradation to the dense reconstruct path when enabled)
    bad_manifest  a ``.npz`` model archive is truncated/corrupted; names the
                  file and the first bad array
    worker_fault  a serving worker *process* died or its pipe broke mid-
                  request (the pool re-spawns it; the batch is retried under
                  the normal fault policy)
    arena         the shared-memory arena is missing, corrupt, or owned by a
                  live process when takeover was attempted

:func:`error_payload` renders any exception as the structured JSON error
object the CLI emits.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.faults import register_error_type


class ServingError(RuntimeError):
    """Base of the serving error taxonomy; ``code`` is the wire-stable tag."""

    code = "serving_error"


class ServerOverloaded(ServingError):
    """Raised by ``submit`` when the queue is full under the shed policy."""

    code = "overloaded"


class ServerClosed(ServingError):
    """Raised when submitting to (or waiting on) a closed batcher/server."""

    code = "closed"


class RequestTimeout(ServingError, TimeoutError):
    """The request's deadline elapsed before any replica completed it."""

    code = "timeout"


class RequestFailed(ServingError):
    """The retry budget is exhausted; ``cause`` is the last replica error."""

    code = "failed"

    def __init__(self, message: str, cause: Optional[BaseException] = None,
                 attempts: int = 0):
        super().__init__(message)
        self.cause = cause
        self.attempts = attempts


class ReplicaUnavailable(ServingError):
    """All replicas of the model are quarantined (reject-when-unavailable)."""

    code = "unavailable"


class EngineFault(ServingError):
    """A compressed inference engine failed mid-forward.

    The server treats this class specially: with
    ``FaultPolicy.degrade_on_engine_fault`` the replica is switched to the
    dense reconstruct path (bit-identical outputs, slower) and the batch is
    re-executed instead of failing.
    """

    code = "engine_fault"


class WorkerFault(ServingError):
    """A serving worker process died, hung past its deadline, or its pipe
    broke mid-request.

    Raised in the *parent*: the :class:`~repro.serve.sharded.ProcessReplica`
    proxy converts a dead/unresponsive worker into this typed error so the
    server's retry/quarantine machinery handles a process crash exactly like
    a thread-replica crash — and the pool re-spawns the worker behind it.
    """

    code = "worker_fault"


class ArenaError(ServingError):
    """A shared-memory arena operation failed.

    Covers attach-to-missing-segment, a corrupt or version-mismatched
    header, and attempted takeover of a segment whose owner is still alive.
    """

    code = "arena"

    def __init__(self, name: Any, message: str):
        super().__init__(f"shared-memory arena {str(name)!r}: {message}")
        self.arena_name = str(name)


class ManifestError(ServingError):
    """A ``.npz`` compressed-model archive failed to load.

    Names the archive and (when one array in particular is truncated or
    corrupted) the first bad array, so a broken deploy artifact is
    diagnosable from the message alone.
    """

    code = "bad_manifest"

    def __init__(self, path: Any, message: str, array: Optional[str] = None):
        detail = f"compressed-model archive {str(path)!r}: {message}"
        if array is not None:
            detail += f" (array {array!r})"
        super().__init__(detail)
        self.path = str(path)
        self.array = array


#: code -> (class, one-line meaning); the README taxonomy table renders this
ERROR_TAXONOMY: Dict[str, tuple] = {
    cls.code: (cls, cls.__doc__.strip().splitlines()[0])
    for cls in (ServerOverloaded, ServerClosed, RequestTimeout, RequestFailed,
                ReplicaUnavailable, EngineFault, WorkerFault, ArenaError,
                ManifestError)
}


def error_payload(error: BaseException,
                  request_id: Any = None) -> Dict[str, Any]:
    """The structured JSON error object for one failed request/line."""
    payload: Dict[str, Any] = {"error": str(error),
                               "error_type": type(error).__name__}
    if request_id is not None:
        payload["id"] = request_id
    if isinstance(error, ServingError):
        payload["code"] = error.code
    if isinstance(error, ServerOverloaded):
        payload["shed"] = True
    return payload


# a fault rule with error="engine" raises EngineFault at serving fault
# points, driving the same degradation path a real engine bug would
register_error_type("engine", lambda point: EngineFault(
    f"injected engine fault at {point!r}"))

# a fault rule with error="worker" simulates a worker process dying / a pipe
# breaking at the serve.worker.* fault points, driving re-spawn handling
register_error_type("worker", lambda point: WorkerFault(
    f"injected worker fault at {point!r}"))
