"""Global numeric policy for the compression engine and the nn substrate.

Two knobs, both process-wide:

* **Compute dtype** — ``float32`` or ``float64``.  The clustering kernels and
  the nn forward/backward run their dense linear algebra in this dtype;
  float32 halves memory bandwidth on every GEMM and argmin scan.
  Accumulation-sensitive reductions (segment sums, SSE, batch-norm statistics,
  loss values) always accumulate in float64 regardless of the policy — see
  :func:`accum_dtype`.
* **Distance block budget** — the maximum number of bytes a single
  ``(rows, k)`` distance/score block may occupy during k-means assignment.
  The GEMM writes each block and the argmin reads it straight back, so the
  default (1 MiB) fits a per-core L2 cache: the block stays cache-resident
  instead of making two trips to DRAM, and the ``(N_G, k)`` matrix is
  never materialised beyond one block.  The block size changes timing
  only — assignments are bit-identical for any budget.

Both knobs can be set from the environment (``REPRO_COMPUTE_DTYPE``,
``REPRO_DISTANCE_BLOCK_BYTES``, read at import) so benchmark runs can flip
the policy without code changes.  Use :func:`precision` as a context
manager for scoped overrides::

    with precision("float32"):
        result = masked_kmeans(data, mask, k=256)

This module intentionally imports nothing from the rest of the package so
that both :mod:`repro.core` and :mod:`repro.nn` can depend on it without
creating an import cycle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional, Union

import numpy as np

DTypeLike = Union[str, type, np.dtype]

_ALLOWED = (np.dtype(np.float32), np.dtype(np.float64))

#: Default ceiling for one (rows, k) score block: 1 MiB, small enough to
#: stay in a per-core L2 cache between the GEMM that writes the block and
#: the argmin that reads it.
DEFAULT_DISTANCE_BLOCK_BYTES = 1 << 20


def _as_compute_dtype(dtype: DTypeLike) -> np.dtype:
    dt = np.dtype(dtype)
    if dt not in _ALLOWED:
        raise ValueError(
            f"compute dtype must be float32 or float64, got {dt!r}"
        )
    return dt


_compute_dtype = _as_compute_dtype(os.environ.get("REPRO_COMPUTE_DTYPE", "float64"))
_env_block_bytes = os.environ.get("REPRO_DISTANCE_BLOCK_BYTES")
_block_bytes = max(1 << 16, int(
    _env_block_bytes or DEFAULT_DISTANCE_BLOCK_BYTES))
_import_block_bytes = _block_bytes


def compute_dtype() -> np.dtype:
    """The dtype dense compute (GEMMs, distance scans) runs in."""
    return _compute_dtype


def accum_dtype() -> np.dtype:
    """The dtype reductions accumulate in — always float64."""
    return np.dtype(np.float64)


def set_compute_dtype(dtype: DTypeLike) -> np.dtype:
    """Set the global compute dtype; returns the previous one."""
    global _compute_dtype
    previous = _compute_dtype
    _compute_dtype = _as_compute_dtype(dtype)
    return previous


def distance_block_bytes() -> int:
    """Memory budget (bytes) for one (rows, k) distance block."""
    return _block_bytes


def distance_block_source() -> str:
    """Where the current budget came from: ``default``
    (:data:`DEFAULT_DISTANCE_BLOCK_BYTES`), ``env``
    (``REPRO_DISTANCE_BLOCK_BYTES`` at import) or ``override`` (any other
    value set since)."""
    if _block_bytes != _import_block_bytes:
        return "override"
    return "env" if _env_block_bytes else "default"


def set_distance_block_bytes(n: int) -> int:
    """Set the distance block budget; returns the previous value."""
    global _block_bytes
    if n < 1:
        raise ValueError("distance block budget must be positive")
    previous = _block_bytes
    _block_bytes = int(n)
    return previous


@contextmanager
def precision(dtype: Optional[DTypeLike] = None,
              block_bytes: Optional[int] = None):
    """Scoped override of the compute dtype and/or distance block budget."""
    prev_dtype = prev_block = None
    try:
        # apply inside the try so a rejected second knob (e.g. a valid dtype
        # but block_bytes=0) still restores whatever was already switched
        if dtype is not None:
            prev_dtype = set_compute_dtype(dtype)
        if block_bytes is not None:
            prev_block = set_distance_block_bytes(block_bytes)
        yield
    finally:
        if prev_dtype is not None:
            set_compute_dtype(prev_dtype)
        if prev_block is not None:
            set_distance_block_bytes(prev_block)


def as_compute(array: np.ndarray) -> np.ndarray:
    """``array`` cast (contiguously) to the current compute dtype."""
    return np.ascontiguousarray(array, dtype=_compute_dtype)


def block_rows(k: int, itemsize: int, budget: Optional[int] = None) -> int:
    """Rows per assignment block so a (rows, k) score matrix fits the budget."""
    budget = _block_bytes if budget is None else max(1, int(budget))
    return max(1, budget // max(1, k * itemsize))
