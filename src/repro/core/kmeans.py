"""Common (unmasked) k-means vector clustering — the paper's Preliminaries.

Used directly for the conventional-VQ ablation cases (A, B, C of Table 3)
and as the shared machinery the masked variant builds on.

Performance notes
-----------------
The hot loops are written for throughput on large layers:

* **Assignment** is a single fused GEMM: the score ``||c||^2 - 2 x.c`` is
  computed as ``[x, 1] @ [-2c, ||c||^2]^T`` so one matrix product produces
  the argmin operand directly, and rows are processed in blocks sized by
  :func:`repro.core.precision.distance_block_bytes` so the ``(N_G, k)``
  score matrix never exceeds the budget.  The default budget (1 MiB) fits
  a per-core L2 cache, so each block the GEMM writes is still in cache
  when the argmin reads it.
* **Update** replaces ``np.add.at`` scatter-adds with a single flattened
  ``np.bincount(weights=...)`` segment sum (an order of magnitude faster;
  bincount also accumulates in float64 regardless of the compute dtype).
* The dense math runs in :func:`repro.core.precision.compute_dtype`
  (float32 or float64); SSE and segment sums accumulate in float64.

Beyond the paper's random init, ``init="kmeans++"`` selects seeds by D^2
sampling, and ``minibatch=<batch size>`` switches to streaming mini-batch
updates for layers too large for full Lloyd iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import precision


@dataclass
class KMeansResult:
    """Output of a vector clustering run."""

    codewords: np.ndarray      # (k, d)
    assignments: np.ndarray    # (N_G,) int
    sse: float                 # final sum of squared errors
    iterations: int


def _init_codewords(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Paper's initialisation: randomly select k subvectors as codewords."""
    n = data.shape[0]
    if k >= n:
        # degenerate but legal: every subvector can be its own codeword
        reps = int(np.ceil(k / n))
        pool = np.tile(np.arange(n), reps)[:k]
        return data[pool].copy()
    idx = rng.choice(n, size=k, replace=False)
    return data[idx].copy()


def _kmeanspp_init(data: np.ndarray, k: int, rng: np.random.Generator,
                   mask: Optional[np.ndarray] = None) -> np.ndarray:
    """k-means++ (D^2 sampling) initialisation, optionally mask-aware.

    With a mask, the distance from subvector ``x`` to candidate centre ``c``
    is the masked distance ``||x - c o bm||^2`` so pruned coordinates do not
    influence seeding.
    """
    n, d = data.shape
    if k >= n:
        return _init_codewords(data, k, rng)
    codewords = np.empty((k, d), dtype=data.dtype)
    codewords[0] = data[rng.integers(n)]

    def dist_to(c: np.ndarray) -> np.ndarray:
        if mask is None:
            diff = data - c
        else:
            diff = data - c * mask
        return np.einsum("nd,nd->n", diff, diff, dtype=np.float64)

    d2 = dist_to(codewords[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with chosen centres: fall back
            codewords[j:] = _init_codewords(data, k - j, rng)
            break
        idx = rng.choice(n, p=d2 / total)
        codewords[j] = data[idx]
        d2 = np.minimum(d2, dist_to(codewords[j]))
    return codewords


def _choose_init(data: np.ndarray, k: int, rng: np.random.Generator, init: str,
                 mask: Optional[np.ndarray] = None) -> np.ndarray:
    if init == "random":
        return _init_codewords(data, k, rng)
    if init == "kmeans++":
        return _kmeanspp_init(data, k, rng, mask=mask)
    raise ValueError(f"unknown init {init!r}; expected 'random' or 'kmeans++'")


def segment_sums(assignments: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster column sums of ``values`` (N, d) -> (k, d).

    One flattened ``np.bincount`` call replaces the ``np.add.at``
    scatter-add; bincount accumulates in float64 whatever the input dtype.
    """
    n, d = values.shape
    idx = assignments * d
    idx = (idx[:, None] + np.arange(d)).ravel()
    return np.bincount(idx, weights=values.reshape(-1), minlength=k * d).reshape(k, d)


def _blocked_argmin(aug: np.ndarray, scorer: np.ndarray,
                    block_bytes: Optional[int]) -> np.ndarray:
    """``argmin(aug @ scorer, axis=1)`` computed in row blocks.

    ``scorer`` is the (d_aug, k) fused codeword matrix; blocks are sized so
    one (rows, k) score matrix stays within the distance budget.
    """
    n = aug.shape[0]
    k = scorer.shape[1]
    rows = precision.block_rows(k, aug.dtype.itemsize, block_bytes)
    if rows >= n:
        return np.argmin(aug @ scorer, axis=1)
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        out[start:stop] = np.argmin(aug[start:stop] @ scorer, axis=1)
    return out


def _augment_ones(data: np.ndarray) -> np.ndarray:
    """``[x, 1]`` rows for the fused assignment GEMM."""
    n, d = data.shape
    aug = np.empty((n, d + 1), dtype=data.dtype)
    aug[:, :d] = data
    aug[:, d] = 1.0
    return aug


def _scorer_ones(codewords: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Fused ``[-2c, ||c||^2]^T`` codeword matrix for ``[x, 1]`` rows."""
    k, d = codewords.shape
    scorer = np.empty((d + 1, k), dtype=dtype)
    scorer[:d] = -2.0 * codewords.T
    scorer[d] = np.einsum("kd,kd->k", codewords, codewords)
    return scorer


def assign_to_nearest(data: np.ndarray, codewords: np.ndarray,
                      block_bytes: Optional[int] = None) -> np.ndarray:
    """Index of the nearest codeword (squared Euclidean) for every subvector.

    ``||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2``; the ``||x||^2`` term is
    constant per row, and the rest is one fused blocked GEMM.
    """
    dt = np.result_type(data, codewords)
    data = np.ascontiguousarray(data, dtype=dt)
    return _blocked_argmin(_augment_ones(data), _scorer_ones(codewords, dt),
                           block_bytes)


def update_codewords(data: np.ndarray, assignments: np.ndarray, k: int,
                     previous: np.ndarray) -> np.ndarray:
    """Mean of assigned subvectors; empty clusters keep their previous codeword."""
    sums = segment_sums(assignments, data, k)
    counts = np.bincount(assignments, minlength=k).astype(np.float64)
    empty = counts == 0
    counts[empty] = 1.0
    updated = (sums / counts[:, None]).astype(data.dtype)
    updated[empty] = previous[empty]
    return updated


def _minibatch_lloyd(data: np.ndarray, codewords: np.ndarray, k: int,
                     batch: int, max_iterations: int,
                     rng: np.random.Generator,
                     block_bytes: Optional[int]) -> np.ndarray:
    """Streaming mini-batch k-means: each codeword is the running mean of
    every batch sample ever assigned to it (exact streaming average)."""
    n = data.shape[0]
    batch = min(batch, n)
    dt = data.dtype
    sums = np.zeros((k, data.shape[1]), dtype=np.float64)
    counts = np.zeros(k, dtype=np.float64)
    for _ in range(max_iterations):
        rows = data[rng.integers(0, n, size=batch)]
        assignments = _blocked_argmin(_augment_ones(rows),
                                      _scorer_ones(codewords, dt), block_bytes)
        sums += segment_sums(assignments, rows, k)
        counts += np.bincount(assignments, minlength=k)
        seen = counts > 0
        codewords[seen] = (sums[seen] / counts[seen, None]).astype(dt)
    return codewords


def kmeans(
    data: np.ndarray,
    k: int,
    max_iterations: int = 100,
    change_threshold: float = 1e-3,
    seed: int = 0,
    init_codewords: Optional[np.ndarray] = None,
    init: str = "random",
    minibatch: Optional[int] = None,
    block_bytes: Optional[int] = None,
) -> KMeansResult:
    """Lloyd's k-means with the paper's stopping rule.

    Iterates until the fraction of subvectors changing assignment falls below
    ``change_threshold`` (the paper uses 0.1% of the total) or
    ``max_iterations`` is hit.  With ``max_iterations=0`` no update step runs
    and the result is the assignment of the data to the *initial* codewords
    (``iterations == 0``) — useful for evaluating an init or a frozen
    codebook.

    ``init`` selects random subvector sampling (the paper) or ``"kmeans++"``
    D^2 sampling; ``minibatch=<batch>`` switches to streaming mini-batch
    updates (``max_iterations`` batches, then one full assignment pass);
    ``block_bytes`` overrides the global distance-block budget.
    """
    data = precision.as_compute(data)
    if data.ndim != 2:
        raise ValueError("data must be a 2D (N_G, d) matrix")
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    rng = np.random.default_rng(seed)
    codewords = (
        np.array(init_codewords, dtype=data.dtype, copy=True)
        if init_codewords is not None
        else _choose_init(data, k, rng, init)
    )
    if codewords.shape != (k, data.shape[1]):
        raise ValueError(f"initial codewords must have shape {(k, data.shape[1])}")

    aug = _augment_ones(data)
    dt = data.dtype

    iterations = 0
    if minibatch is not None and max_iterations > 0:
        codewords = _minibatch_lloyd(data, codewords, k, minibatch,
                                     max_iterations, rng, block_bytes)
        iterations = max_iterations
        assignments = _blocked_argmin(aug, _scorer_ones(codewords, dt), block_bytes)
    else:
        assignments = _blocked_argmin(aug, _scorer_ones(codewords, dt), block_bytes)
        for iterations in range(1, max_iterations + 1):
            codewords = update_codewords(data, assignments, k, codewords)
            new_assignments = _blocked_argmin(aug, _scorer_ones(codewords, dt),
                                              block_bytes)
            changed = np.count_nonzero(new_assignments != assignments)
            assignments = new_assignments
            if changed <= change_threshold * data.shape[0]:
                break

    residual = (data - codewords[assignments]).astype(np.float64, copy=False)
    sse = float(np.einsum("nd,nd->", residual, residual))
    return KMeansResult(codewords=codewords, assignments=assignments,
                        sse=sse, iterations=iterations)
