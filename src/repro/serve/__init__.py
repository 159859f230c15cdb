"""``repro.serve`` — dynamic-batching model serving for compressed inference.

The serving layer over the decode-free compressed-domain engine:

* :class:`~repro.serve.batcher.DynamicBatcher` — thread-safe bounded
  request queue with work-conserving max-batch-size dispatch and an
  explicit shed-or-block overload policy.
* :class:`~repro.serve.server.ModelServer` — multi-model registry with
  per-model worker pools, batch-invariant (bit-stable) batch execution and
  p50/p95 latency + throughput + batch-histogram stats.
* :mod:`~repro.serve.errors` — the typed error taxonomy every failed
  request resolves with (stable ``code`` per failure mode).
* :class:`~repro.serve.server.FaultPolicy` — per-model retries/backoff,
  deadlines, replica quarantine + re-warm, and graceful degradation to the
  dense reconstruct path on engine faults.
* :mod:`~repro.serve.loader` — builds serving replicas from the pipeline
  scenario registry or serialized ``.npz`` manifests (replicas share one
  physical copy of model state via read-only views).
* :mod:`~repro.serve.shm` + :mod:`~repro.serve.sharded` — the sharded
  multi-process tier: a refcounted shared-memory arena holding one copy of
  all compressed/model state, and :class:`~repro.serve.sharded.
  ProcessReplicaPool` worker processes that map it zero-copy behind the
  same ``ModelServer`` API.
* ``python -m repro.serve`` — JSONL serving over stdin/stdout or TCP.
"""

from repro.serve.batcher import BatchPolicy, DynamicBatcher, Request
from repro.serve.errors import (
    ERROR_TAXONOMY,
    ArenaError,
    EngineFault,
    ManifestError,
    ReplicaUnavailable,
    RequestFailed,
    RequestTimeout,
    ServerClosed,
    ServerOverloaded,
    ServingError,
    WorkerFault,
    error_payload,
)
from repro.serve.loader import (
    LoadedModel,
    adopt_state_views,
    load_npz,
    load_scenario,
    policy_from_spec,
    replica_state_report,
    verify_npz,
)
from repro.serve.metrics import ServingMetrics, StatsRegistry
from repro.serve.server import FaultPolicy, ModelServer, serving_chaos_plan
from repro.serve.sharded import (
    ProcessReplica,
    ProcessReplicaPool,
    worker_chaos_plan,
)
from repro.serve.shm import ShmArena

__all__ = [
    "ArenaError",
    "BatchPolicy",
    "DynamicBatcher",
    "ERROR_TAXONOMY",
    "EngineFault",
    "FaultPolicy",
    "LoadedModel",
    "ManifestError",
    "ModelServer",
    "ProcessReplica",
    "ProcessReplicaPool",
    "ReplicaUnavailable",
    "Request",
    "RequestFailed",
    "RequestTimeout",
    "ServerClosed",
    "ServerOverloaded",
    "ServingError",
    "ServingMetrics",
    "ShmArena",
    "StatsRegistry",
    "WorkerFault",
    "adopt_state_views",
    "error_payload",
    "load_npz",
    "load_scenario",
    "policy_from_spec",
    "replica_state_report",
    "serving_chaos_plan",
    "verify_npz",
    "worker_chaos_plan",
]
