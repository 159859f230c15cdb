"""Masked k-means clustering (Section 4.4, the paper's key algorithm).

Both steps of Lloyd's algorithm are modified so that pruned weights cannot
drag codewords towards zero:

* **Masked assignment** (Eq. 2): the distance between a subvector and a
  codeword only sums the unpruned coordinates,
  ``||w_j - c o bm_j||^2``.
* **Masked update** (Eq. 3/4): each codeword coordinate becomes the mean of
  that coordinate over *unpruned* occurrences only,
  ``c_i = sum_p v_p / sum_p n_p`` (elementwise).

The paper implements the masked distance with a broadcast ``[L, k, d]``
tensor and computes "only distances between the unpruned weights and the
codewords".  With ``w`` zero at pruned positions the same quantity expands
to ``||w||^2 - 2 w.c + bm . c^2``; the row-constant ``||w||^2`` drops out of
the argmin, and the rest is evaluated by matrix products over the kept
coordinates only — no ``(L, k, d)`` intermediate is ever materialised.

Performance notes (shared with :mod:`repro.core.kmeans`):

* The keep-mask is fixed during a run, so each run first builds one
  compact view of the subvectors: rows are stably sorted by their
  keep-mask pattern, and a group of rows sharing a pattern ``P`` holds
  ``[w_P, 1]`` over its kept coordinates only.  Assignment is one blocked
  GEMM per group, ``[w_P, 1] @ [-2c_P, c_P^2]^T``, scattered back to row
  order.  Under 2:8 pruning each GEMM runs over 4 columns instead of 16.
* Patterns with fewer rows than one distance block would each pay a GEMM
  call for little work, so they are pooled into one group over the union
  ``U`` of their kept coordinates with ``[w_U, bm_U]`` columns.  A layer
  that is all pooled runs exactly the fused ``[w, bm] @ [-2c, c^2]^T`` GEMM
  over its used coordinates.
* The update bincounts only the kept entries (key ``assignment * d +
  coordinate``, in row-major order) and takes the counts from the same
  keys; ``np.bincount`` accumulates in float64 whatever the input dtype.
* Neither step changes a bit against the full-width formulation: the
  dropped terms are exact zeros and the kept ones keep their order in the
  GEMM's and bincount's accumulation.
* Dense math runs in :func:`repro.core.precision.compute_dtype`; the
  reported SSE always accumulates in float64.
* ``init="kmeans++"`` seeds by masked-distance D^2 sampling and
  ``minibatch=<batch>`` enables streaming updates for very large layers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core import precision
from repro.core.kmeans import KMeansResult, _blocked_argmin, _choose_init

#: one assignment group: its rows (scatter target), its ``[w, bm]`` columns
#: over the kept coordinates, and the scorer rows those columns meet
_Group = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: kept entries of a masked matrix: row indices, coordinates, values
_Entries = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _pattern_groups(data: np.ndarray, mask: np.ndarray, k: int,
                    block_bytes: Optional[int]) -> List[_Group]:
    """Compact assignment groups of masked ``data`` (built once per run).

    Rows are stably sorted by keep-mask pattern; the key is the mask's bits
    packed into ``ceil(d / 8)`` bytes per row, so any ``d`` works.  Patterns
    with fewer rows than one distance block are pooled over the union of
    their kept coordinates.
    """
    n, d = data.shape
    key = np.packbits(np.pad(mask, ((0, 0), (0, -d % 8)))).reshape(n, -1)
    order = np.lexsort(key.T[::-1])
    ordered = key[order]
    starts = np.flatnonzero(np.r_[True, np.any(ordered[1:] != ordered[:-1], axis=1)])
    sizes = np.diff(np.r_[starts, n])
    big = sizes >= precision.block_rows(k, data.dtype.itemsize, block_bytes)

    row_sets = [order[s:s + size] for s, size in zip(starts[big], sizes[big])]
    if not big.all():
        row_sets.append(order[np.repeat(~big, sizes)])

    groups = []
    for rows in row_sets:
        kept = np.unpackbits(np.bitwise_or.reduce(key[rows], axis=0))[:d]
        cols = np.flatnonzero(kept)
        aug = np.concatenate((data.take(rows, axis=0)[:, cols],
                              mask.take(rows, axis=0)[:, cols]), axis=1, dtype=data.dtype)
        groups.append((rows, aug, np.r_[cols, cols + d]))
    return groups


def _group_argmin(groups: List[_Group], codewords: np.ndarray, dt: np.dtype,
                  block_bytes: Optional[int]) -> np.ndarray:
    """Nearest codeword per row: one blocked GEMM per group against the
    matching rows of ``[-2c, c^2]^T``."""
    k, d = codewords.shape
    scorer = np.empty((2 * d, k), dtype=dt)
    scorer[:d] = -2.0 * codewords.T
    scorer[d:] = (codewords ** 2).T
    out = np.empty(sum(rows.size for rows, _, _ in groups), dtype=np.int64)
    for rows, aug, scorer_rows in groups:
        out[rows] = _blocked_argmin(aug, scorer[scorer_rows], block_bytes)
    return out


def _kept_entries(data: np.ndarray, mask: np.ndarray) -> _Entries:
    """Row, coordinate and value of every kept entry, in row-major order."""
    flat = np.flatnonzero(mask)
    rows, cols = np.divmod(flat, mask.shape[1])
    return rows, cols, data.reshape(-1)[flat]


def _kept_sums(entries: _Entries, assignments: np.ndarray, k: int,
               d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cluster, per-coordinate (sums, counts) over kept entries only."""
    rows, cols, values = entries
    keys = assignments[rows] * d + cols
    sums = np.bincount(keys, weights=values, minlength=k * d)
    counts = np.bincount(keys, minlength=k * d)
    return sums.reshape(k, d), counts.reshape(k, d)


def _kept_update(sums: np.ndarray, counts: np.ndarray, previous: np.ndarray,
                 dt: np.dtype) -> np.ndarray:
    """Eq. 4 from kept-entry sums; coordinates with no count keep ``previous``."""
    return np.where(counts > 0, sums / np.maximum(counts, 1.0), previous).astype(dt)


def masked_assign(data: np.ndarray, mask: np.ndarray, codewords: np.ndarray,
                  block_bytes: Optional[int] = None) -> np.ndarray:
    """Nearest codeword per subvector under the masked distance (Eq. 2).

    Pruned values of ``data`` are ignored.  Each row is scored over its
    kept coordinates only, in row blocks bounded by the distance budget;
    the argmins are the same for any budget.
    """
    dt = np.result_type(data, codewords)
    mask = np.asarray(mask, dtype=bool)
    data = np.asarray(data, dtype=dt) * mask
    groups = _pattern_groups(data, mask, codewords.shape[0], block_bytes)
    return _group_argmin(groups, codewords, dt, block_bytes)


def masked_distances(data: np.ndarray, mask: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """Full masked squared-distance matrix (N_G, k); used by tests/analysis.

    Pruned values of ``data`` are ignored.
    """
    data = data * mask
    data_norm = np.einsum("nd,nd->n", data, data)
    cross = data @ codewords.T
    masked_c_norm = mask @ (codewords**2).T
    return data_norm[:, None] - 2.0 * cross + masked_c_norm


def masked_update(data: np.ndarray, mask: np.ndarray, assignments: np.ndarray,
                  k: int, previous: np.ndarray) -> np.ndarray:
    """Masked codeword update (Eq. 4): per-coordinate mean over unpruned entries.

    Only kept entries of ``data`` are read.  Coordinates with no unpruned
    occurrence in a cluster (including entirely empty clusters) keep their
    previous value.
    """
    entries = _kept_entries(data, np.asarray(mask, dtype=bool))
    sums, counts = _kept_sums(entries, assignments, k, data.shape[1])
    return _kept_update(sums, counts, previous, data.dtype)


def masked_kmeans(
    data: np.ndarray,
    mask: np.ndarray,
    k: int,
    max_iterations: int = 100,
    change_threshold: float = 1e-3,
    seed: int = 0,
    init_codewords: Optional[np.ndarray] = None,
    init: str = "random",
    minibatch: Optional[int] = None,
    block_bytes: Optional[int] = None,
) -> KMeansResult:
    """Masked k-means over pruned subvectors.

    ``data`` is the (N_G, d) matrix of subvectors, ``mask`` the matching
    boolean keep-mask; values at pruned positions are ignored.  The returned
    SSE is the masked clustering error ``sum_j ||w_j - q(w_j) o bm_j||^2`` —
    the quantity the algorithm minimises and the paper reports as "Mask
    SSE".

    ``max_iterations=0`` performs no update step: the result is the masked
    assignment of the data to the *initial* codewords (``iterations == 0``).
    ``init``/``minibatch``/``block_bytes`` behave as in
    :func:`repro.core.kmeans.kmeans`; the k-means++ variant samples by
    masked distance.
    """
    data = precision.as_compute(data)
    mask = np.asarray(mask, dtype=bool)
    if data.shape != mask.shape:
        raise ValueError("data and mask must have the same shape")
    if data.ndim != 2:
        raise ValueError("data must be a 2D (N_G, d) matrix")
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")

    data = data * mask  # enforce the pruning invariant
    dt = data.dtype
    rng = np.random.default_rng(seed)
    codewords = (
        np.array(init_codewords, dtype=dt, copy=True)
        if init_codewords is not None
        else _choose_init(data, k, rng, init, mask=mask)
    )
    if codewords.shape != (k, data.shape[1]):
        raise ValueError(f"initial codewords must have shape {(k, data.shape[1])}")

    groups = _pattern_groups(data, mask, k, block_bytes)

    iterations = 0
    if minibatch is not None and max_iterations > 0:
        codewords = _minibatch_masked(data, mask, codewords, k, minibatch,
                                      max_iterations, rng, block_bytes)
        iterations = max_iterations
        assignments = _group_argmin(groups, codewords, dt, block_bytes)
    else:
        entries = _kept_entries(data, mask)
        assignments = _group_argmin(groups, codewords, dt, block_bytes)
        for iterations in range(1, max_iterations + 1):
            sums, counts = _kept_sums(entries, assignments, k, data.shape[1])
            codewords = _kept_update(sums, counts, codewords, dt)
            new_assignments = _group_argmin(groups, codewords, dt, block_bytes)
            changed = np.count_nonzero(new_assignments != assignments)
            assignments = new_assignments
            if changed <= change_threshold * data.shape[0]:
                break

    residual = ((data - codewords[assignments]) * mask).astype(np.float64, copy=False)
    sse = float(np.einsum("nd,nd->", residual, residual))
    return KMeansResult(codewords=codewords, assignments=assignments,
                        sse=sse, iterations=iterations)


def _minibatch_masked(data: np.ndarray, mask: np.ndarray, codewords: np.ndarray,
                      k: int, batch: int, max_iterations: int,
                      rng: np.random.Generator,
                      block_bytes: Optional[int]) -> np.ndarray:
    """Streaming masked mini-batch updates: per-coordinate running means over
    every unpruned occurrence seen so far."""
    n, d = data.shape
    batch = min(batch, n)
    dt = data.dtype
    sums = np.zeros((k, d), dtype=np.float64)
    counts = np.zeros((k, d), dtype=np.float64)
    for _ in range(max_iterations):
        idx = rng.integers(0, n, size=batch)
        rows, row_mask = data[idx], mask[idx]
        assignments = _group_argmin(_pattern_groups(rows, row_mask, k, block_bytes),
                                    codewords, dt, block_bytes)
        batch_sums, batch_counts = _kept_sums(_kept_entries(rows, row_mask),
                                              assignments, k, d)
        sums += batch_sums
        counts += batch_counts
        seen = counts > 0
        codewords[seen] = (sums[seen] / counts[seen]).astype(dt)
    return codewords
