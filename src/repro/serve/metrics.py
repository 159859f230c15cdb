"""Serving metrics: latency percentiles, throughput, batch-size histogram.

Every :class:`~repro.serve.server.ModelServer` worker records into one
:class:`ServingMetrics` per model.  The recorder is deliberately dumb and
lock-protected — it appends raw per-request latencies and per-batch sizes —
and all statistics (p50/p95, samples/s, the batch histogram) are derived at
report time, so recording stays cheap on the hot path and the report is
always consistent with itself.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.core.telemetry import quantile


class ServingMetrics:
    """Thread-safe accumulator for one served model.

    Records three request outcomes (``completed`` / ``shed`` / ``failed``)
    plus, for completed requests, the queue-wait and total latency, and for
    every executed batch its size.  ``snapshot()`` turns the raw samples
    into the JSON stats report the server exposes.
    """

    def __init__(self, window: int = 4096):
        # keep at most `window` latency samples (newest wins) so a
        # long-running server's stats report stays O(window), not O(traffic)
        self.window = int(window)
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self._latencies: List[float] = []
        self._queue_waits: List[float] = []
        self._batch_sizes: Dict[int, int] = {}
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.batches = 0
        # fault-handling outcomes (see repro.serve.errors for the taxonomy)
        self.timeouts = 0
        self.retries = 0
        self.replica_failures = 0
        self.quarantines = 0
        self.restarts = 0
        self.degraded_serves = 0

    # -- recording (hot path) -------------------------------------------------
    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1

    def record_request(self, latency_s: float, queue_wait_s: float) -> None:
        with self._lock:
            self.completed += 1
            self._latencies.append(float(latency_s))
            self._queue_waits.append(float(queue_wait_s))
            if len(self._latencies) > self.window:
                del self._latencies[: -self.window]
                del self._queue_waits[: -self.window]

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def record_failure(self) -> None:
        with self._lock:
            self.failed += 1

    def record_timeout(self) -> None:
        """A request's deadline elapsed before a replica completed it."""
        with self._lock:
            self.timeouts += 1

    def record_retry(self) -> None:
        """A failed request was re-queued for another attempt."""
        with self._lock:
            self.retries += 1

    def record_replica_failure(self) -> None:
        """One replica batch execution raised (before retry routing)."""
        with self._lock:
            self.replica_failures += 1

    def record_quarantine(self) -> None:
        """A replica crossed its consecutive-failure limit and was benched."""
        with self._lock:
            self.quarantines += 1

    def record_restart(self) -> None:
        """A quarantined replica re-warmed successfully and was re-admitted."""
        with self._lock:
            self.restarts += 1

    def record_degraded(self, requests: int = 1) -> None:
        """Requests served via the dense fallback after an engine fault."""
        with self._lock:
            self.degraded_serves += requests

    # -- reporting ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able stats: counts, latency percentiles, throughput, histogram."""
        with self._lock:
            latencies = list(self._latencies)
            waits = list(self._queue_waits)
            sizes = dict(self._batch_sizes)
            completed, shed, failed = self.completed, self.shed, self.failed
            batches = self.batches
            faults = {
                "timeouts": self.timeouts,
                "retries": self.retries,
                "replica_failures": self.replica_failures,
                "quarantines": self.quarantines,
                "restarts": self.restarts,
                "degraded_serves": self.degraded_serves,
            }
        elapsed = max(time.perf_counter() - self._started, 1e-9)
        mean_batch = (sum(size * count for size, count in sizes.items())
                      / max(batches, 1))
        return {
            "requests_completed": completed,
            "requests_shed": shed,
            "requests_failed": failed,
            "batches_executed": batches,
            "throughput_rps": completed / elapsed,
            "latency_ms": {
                "p50": quantile(latencies, 0.5) * 1e3,
                "p95": quantile(latencies, 0.95) * 1e3,
                "p99": quantile(latencies, 0.99) * 1e3,
                "max": max(latencies) * 1e3 if latencies else 0.0,
                "mean": (sum(latencies) / len(latencies) * 1e3
                         if latencies else 0.0),
            },
            "queue_wait_ms": {
                "p50": quantile(waits, 0.5) * 1e3,
                "p95": quantile(waits, 0.95) * 1e3,
                "p99": quantile(waits, 0.99) * 1e3,
            },
            "batch_size_histogram": {str(k): v for k, v in sorted(sizes.items())},
            "mean_batch_size": mean_batch,
            "window_seconds": elapsed,
            "faults": faults,
        }

    def stats(self) -> Dict[str, Any]:
        """The compact per-model breakdown: latency percentiles (p50/p95/p99)
        and throughput, without histograms or fault ledgers.

        A stable sub-view of :meth:`snapshot` for dashboards and the CLI's
        final stats line — one model, five numbers.
        """
        snap = self.snapshot()
        return {
            "requests_completed": snap["requests_completed"],
            "throughput_rps": snap["throughput_rps"],
            "latency_ms": dict(snap["latency_ms"]),
            "queue_wait_ms": dict(snap["queue_wait_ms"]),
        }


class StatsRegistry:
    """Per-model metrics plus a merged server-level report."""

    def __init__(self):
        self._metrics: Dict[str, ServingMetrics] = {}
        self._info: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    def set_info(self, name: str, info: Dict[str, Any]) -> None:
        """Attach static per-model serving info — e.g. the per-layer engine
        report (resolved execution mode, LUT table bytes) — surfaced under
        ``report()["engines"]``."""
        with self._lock:
            self._info[name] = dict(info)

    def for_model(self, name: str, window: Optional[int] = None) -> ServingMetrics:
        with self._lock:
            if name not in self._metrics:
                self._metrics[name] = (ServingMetrics(window)
                                       if window is not None else ServingMetrics())
            return self._metrics[name]

    def report(self) -> Dict[str, Any]:
        with self._lock:
            items = list(self._metrics.items())
            info = {name: dict(data) for name, data in self._info.items()}
        models = {name: metrics.snapshot() for name, metrics in items}
        return {
            "models": models,
            # per-model {layer: engine stats} — resolved mode per layer
            # (dense/lut), LUT table bytes, widths
            "engines": {name: data.get("engines", {})
                        for name, data in info.items()},
            "total_completed": sum(m["requests_completed"] for m in models.values()),
            "total_shed": sum(m["requests_shed"] for m in models.values()),
        }
