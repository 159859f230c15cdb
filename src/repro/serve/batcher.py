"""Dynamic request batching: a thread-safe queue that coalesces requests.

:class:`DynamicBatcher` is the server's admission + coalescing core.
Clients :meth:`~DynamicBatcher.submit` single requests and get a
:class:`Request` handle back; a worker thread repeatedly calls
:meth:`~DynamicBatcher.next_batch`, which blocks until work exists and then
pops whatever is queued, FIFO and up to ``max_batch_size`` requests.
Dispatch is work-conserving: an idle replica never holds a partial batch
open on a timer.  Coalescing comes from the replicas being busy — requests
that arrive while every replica is forwarding queue up and leave together
when the next one asks — so batches stay small at low load and fill up
under saturation.

Overload is explicit: the queue is bounded by ``max_queue_size`` and the
``overload`` policy picks what an over-limit ``submit`` does — ``"shed"``
raises :class:`ServerOverloaded` immediately (load-shedding; the caller
sees the rejection instead of unbounded latency), ``"block"`` applies
backpressure by making the producer wait for queue space.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional

from repro.core import telemetry

# the batcher's failure modes live in the serving error taxonomy; re-exported
# here because they are raised from this module's API
from repro.serve.errors import ServerClosed, ServerOverloaded

OVERLOAD_POLICIES = ("shed", "block")


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the dynamic batcher.

    ``max_batch_size``
        Upper bound on coalesced batch size.
    ``max_wait_ms``
        Accepted and validated (scenarios, the CLI and ``stats_report``
        carry it) but inert: dispatch is work-conserving, so no request
        waits for co-travellers while a replica is idle.
    ``max_queue_size``
        Admission bound; queue depth beyond the in-flight batch.
    ``overload``
        ``"shed"`` rejects over-limit submissions with
        :class:`ServerOverloaded`; ``"block"`` makes submitters wait.
    """

    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    max_queue_size: int = 256
    overload: str = "shed"

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_queue_size < 1:
            raise ValueError("max_queue_size must be >= 1")
        if self.overload not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload must be one of {OVERLOAD_POLICIES}, got {self.overload!r}")


_request_ids = itertools.count()


class Request:
    """One in-flight request: payload in, future-style result out.

    ``attempts`` counts executions that failed (the retry path bumps it);
    ``deadline`` is the absolute ``perf_counter`` instant after which the
    server resolves the request with a timeout instead of executing it.
    """

    __slots__ = ("id", "payload", "enqueued_at", "completed_at", "attempts",
                 "deadline", "trace_tid", "_event", "_result", "_error")

    def __init__(self, payload: Any, request_id: Optional[Any] = None):
        self.id = next(_request_ids) if request_id is None else request_id
        self.payload = payload
        self.enqueued_at = time.perf_counter()
        self.completed_at: Optional[float] = None
        self.attempts = 0
        self.deadline: Optional[float] = None
        # the submitting thread's id, so the request span lands on the
        # client's track in the trace (only stamped while tracing is on)
        self.trace_tid: Optional[int] = (
            threading.get_ident() if telemetry.enabled() else None)
        self._event = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.perf_counter() if now is None else now) >= self.deadline

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, value: Any) -> None:
        self._result = value
        self.completed_at = time.perf_counter()
        self._event.set()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self.completed_at = time.perf_counter()
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the batch containing this request has executed."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"request {self.id} not completed within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def latency_s(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.enqueued_at


class DynamicBatcher:
    """Bounded FIFO request queue with work-conserving max-batch dispatch."""

    def __init__(self, policy: Optional[BatchPolicy] = None):
        self.policy = policy or BatchPolicy()
        self._queue: Deque[Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._pending_retries = 0

    # -- producer side --------------------------------------------------------
    def submit(self, payload: Any, request_id: Optional[Any] = None,
               timeout: Optional[float] = None,
               deadline_s: Optional[float] = None) -> Request:
        """Enqueue one request; returns its :class:`Request` handle.

        Under the ``"shed"`` policy a full queue raises
        :class:`ServerOverloaded`; under ``"block"`` the call waits for
        space (``timeout`` bounds that wait).  ``deadline_s`` starts the
        request's wall-clock budget at admission: once it elapses the server
        resolves the request with a timeout error instead of (re-)executing
        it.
        """
        request = Request(payload, request_id)
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cond:
            if self._closed:
                raise ServerClosed("batcher is closed")
            while len(self._queue) >= self.policy.max_queue_size:
                if self.policy.overload == "shed":
                    raise ServerOverloaded(
                        f"queue full ({self.policy.max_queue_size} requests)")
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                if remaining is not None and remaining <= 0:
                    raise ServerOverloaded(
                        f"queue still full after blocking {timeout}s")
                if not self._cond.wait(remaining):
                    raise ServerOverloaded(
                        f"queue still full after blocking {timeout}s")
                if self._closed:
                    raise ServerClosed("batcher closed while waiting for space")
            # stamp enqueue time *inside* the lock so queue-wait metrics do
            # not count time spent blocked on admission
            request.enqueued_at = time.perf_counter()
            if deadline_s is not None:
                request.deadline = request.enqueued_at + deadline_s
            self._queue.append(request)
            self._cond.notify_all()
        return request

    # -- retry side ------------------------------------------------------------
    def requeue(self, requests: List[Request]) -> None:
        """Push failed requests back to the *front* of the queue (they are
        the oldest work) — ignoring admission bounds and the closed flag, so
        retries still land while a drain shutdown is completing."""
        with self._cond:
            for request in reversed(requests):
                self._queue.appendleft(request)
            self._cond.notify_all()

    def requeue_later(self, request: Request, delay_s: float) -> None:
        """Requeue after a backoff delay (a daemon timer re-admits it).

        The pending-retry count keeps ``next_batch`` from telling workers
        the queue is drained while a retry is still in its backoff window —
        the hole that would otherwise let a drain shutdown strand a retried
        request forever.
        """
        with self._cond:
            self._pending_retries += 1

        def _land():
            with self._cond:
                self._pending_retries -= 1
                self._queue.appendleft(request)
                self._cond.notify_all()

        timer = threading.Timer(max(0.0, delay_s), _land)
        timer.daemon = True
        timer.start()

    def fail_expired(self, now: Optional[float] = None) -> List[Request]:
        """Remove and return every queued request whose deadline has passed.

        The caller resolves them (typed timeout error + metrics); pulling
        them here keeps deadline enforcement alive even when every replica
        is quarantined and nothing is popping batches.
        """
        now = time.perf_counter() if now is None else now
        with self._cond:
            expired = [r for r in self._queue if r.expired(now)]
            if expired:
                self._queue = deque(r for r in self._queue
                                    if not r.expired(now))
                self._cond.notify_all()
        return expired

    # -- consumer side --------------------------------------------------------
    def next_batch(self) -> Optional[List[Request]]:
        """Block until requests exist, then pop every queued one, FIFO and
        up to ``max_batch_size``, without waiting for more to arrive.

        Returns ``None`` once the batcher is closed *and* drained — the
        worker's signal to exit.  "Drained" includes retries still in their
        backoff window: a worker never exits while a requeue timer is about
        to re-admit work.
        """
        with self._cond:
            while not self._queue:
                if self._closed and self._pending_retries == 0:
                    return None
                self._cond.wait(0.05 if self._closed else None)
            batch = [self._queue.popleft()
                     for _ in range(min(self.policy.max_batch_size,
                                        len(self._queue)))]
            self._cond.notify_all()  # wake producers blocked on admission
            return batch

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Stop admitting requests; queued work may still be drained."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def qsize(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def pending_retries(self) -> int:
        with self._cond:
            return self._pending_retries
