"""Masked k-means on the compact per-pattern view vs the full-width form.

The library scores each keep-mask pattern group over its kept coordinates
only and bincounts only kept entries.  The reference below is the
full-width formulation it replaced: one fused ``[w, bm] @ [-2c, c^2]^T``
GEMM over all ``2d`` columns and a ``segment_sums`` update over all
``n * d`` entries.  The dropped terms are exact zeros and the kept ones
keep their accumulation order, so every output must be byte-equal.
"""

from typing import Optional

import numpy as np
import pytest

from repro.core import precision
from repro.core.kmeans import _blocked_argmin, _choose_init, segment_sums
from repro.core.masked_kmeans import (
    _pattern_groups,
    masked_assign,
    masked_distances,
    masked_kmeans,
    masked_update,
)
from repro.core.pruning import nm_prune_mask


# -- full-width reference ----------------------------------------------------

def _ref_argmin(data, mask, codewords, block_bytes):
    dt = data.dtype
    n, d = data.shape
    k = codewords.shape[0]
    aug = np.empty((n, 2 * d), dtype=dt)
    aug[:, :d] = data
    aug[:, d:] = mask
    scorer = np.empty((2 * d, k), dtype=dt)
    scorer[:d] = -2.0 * codewords.T
    scorer[d:] = (codewords ** 2).T
    return _blocked_argmin(aug, scorer, block_bytes)


def _ref_update(data, mask, assignments, k, previous):
    sums = segment_sums(assignments, data, k)
    counts = segment_sums(assignments, mask.astype(data.dtype), k)
    updated = np.where(counts > 0, sums / np.maximum(counts, 1.0), previous)
    return updated.astype(data.dtype)


def _ref_masked_kmeans(data, mask, k, max_iterations=100, change_threshold=1e-3,
                       seed=0, init_codewords=None, init="random",
                       minibatch: Optional[int] = None, block_bytes=None):
    data = precision.as_compute(data) * mask
    dt = data.dtype
    rng = np.random.default_rng(seed)
    codewords = (np.array(init_codewords, dtype=dt, copy=True)
                 if init_codewords is not None
                 else _choose_init(data, k, rng, init, mask=mask))
    maskf = mask.astype(dt)
    iterations = 0
    if minibatch is not None and max_iterations > 0:
        n, d = data.shape
        batch = min(minibatch, n)
        sums = np.zeros((k, d))
        counts = np.zeros((k, d))
        for _ in range(max_iterations):
            idx = rng.integers(0, n, size=batch)
            rows, row_mask = data[idx], maskf[idx]
            assignments = _ref_argmin(rows, row_mask, codewords, block_bytes)
            sums += segment_sums(assignments, rows, k)
            counts += segment_sums(assignments, row_mask, k)
            seen = counts > 0
            codewords[seen] = (sums[seen] / counts[seen]).astype(dt)
        iterations = max_iterations
        assignments = _ref_argmin(data, maskf, codewords, block_bytes)
    else:
        assignments = _ref_argmin(data, maskf, codewords, block_bytes)
        for iterations in range(1, max_iterations + 1):
            codewords = _ref_update(data, mask, assignments, k, codewords)
            new = _ref_argmin(data, maskf, codewords, block_bytes)
            changed = np.count_nonzero(new != assignments)
            assignments = new
            if changed <= change_threshold * data.shape[0]:
                break
    residual = ((data - codewords[assignments]) * mask).astype(np.float64, copy=False)
    sse = float(np.einsum("nd,nd->", residual, residual))
    return codewords, assignments, sse, iterations


# -- cases -------------------------------------------------------------------

def _nm(n_keep, m, d):
    def make(rng, n):
        data = rng.normal(size=(n, d))
        return data, nm_prune_mask(data, n_keep, m)
    return make


def _unstructured(density, d=8):
    def make(rng, n):
        return rng.normal(size=(n, d)), rng.random((n, d)) < density
    return make


MASKS = {
    "2:8 d=8": _nm(2, 8, 8),
    "2:4 d=8": _nm(2, 4, 8),
    "2:4 d=16": _nm(2, 4, 16),
    "4:8 d=16": _nm(4, 8, 16),
    "unstructured 0.1": _unstructured(0.1),
    "unstructured 0.5": _unstructured(0.5),
    "unstructured 1.0": _unstructured(1.0),
}

RUNS = {
    "random": dict(),
    "kmeans++": dict(init="kmeans++"),
    "minibatch": dict(minibatch=64, max_iterations=8),
}


def _assert_same_run(data, mask, k, **kwargs):
    ref = _ref_masked_kmeans(data, mask, k, **kwargs)
    got = masked_kmeans(data, mask, k, **kwargs)
    assert got.codewords.tobytes() == ref[0].tobytes()
    assert got.assignments.tobytes() == ref[1].tobytes()
    assert got.sse == ref[2]
    assert got.iterations == ref[3]


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("block_bytes", [None, 1024])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("mask_case", MASKS)
def test_masked_kmeans_bytes_match_full_width(mask_case, dtype, block_bytes, run):
    rng = np.random.default_rng(11)
    data, mask = MASKS[mask_case](rng, 600)
    with precision.precision(dtype):
        _assert_same_run(data * mask, mask, 16, seed=3, block_bytes=block_bytes,
                         **RUNS[run])


@pytest.mark.parametrize("block_bytes", [None, 1024])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mask_case", MASKS)
def test_assign_and_update_bytes_match_full_width(mask_case, dtype, block_bytes):
    rng = np.random.default_rng(5)
    data, mask = MASKS[mask_case](rng, 500)
    data = (data * mask).astype(dtype)
    codewords = rng.normal(size=(24, data.shape[1])).astype(dtype)
    got = masked_assign(data, mask, codewords, block_bytes=block_bytes)
    ref = _ref_argmin(data, mask.astype(dtype), codewords, block_bytes)
    assert got.tobytes() == ref.tobytes()
    assert (masked_update(data, mask, got, 24, codewords).tobytes()
            == _ref_update(data, mask, got, 24, codewords).tobytes())


def _layout(data, mask, k, block_bytes):
    """(grouped rows, pooled rows) of the compact view: a group whose
    columns come with any pruned entry is the pool."""
    grouped = pooled = 0
    for rows, aug, _ in _pattern_groups(data, mask, k, block_bytes):
        half = aug.shape[1] // 2
        if np.all(aug[:, half:] == 1.0) and rows.size >= precision.block_rows(
                k, data.dtype.itemsize, block_bytes):
            grouped += rows.size
        else:
            pooled += rows.size
    return grouped, pooled


@pytest.mark.parametrize("layout,n,block_bytes", [
    ("pooled", 400, None),        # 28 patterns of ~14 rows, 8192-row blocks
    ("grouped", 2000, 4096),      # every pattern has >= 32 rows
    ("mixed", 400, 2048),         # patterns straddle the 16-row block
])
def test_pooled_grouped_and_mixed_layers(layout, n, block_bytes):
    rng = np.random.default_rng(2)
    data, mask = _nm(2, 8, 8)(rng, n)
    data = data * mask
    grouped, pooled = _layout(data, mask, 16, block_bytes)
    assert grouped + pooled == n
    assert {"pooled": grouped == 0, "grouped": pooled == 0,
            "mixed": grouped > 0 and pooled > 0}[layout]
    _assert_same_run(data, mask, 16, seed=1, block_bytes=block_bytes)


# -- pattern-key edge cases ----------------------------------------------------

def test_pattern_key_beyond_sixteen_coordinates():
    """d=32 patterns that agree on their first 16 coordinates still form
    separate groups: the key holds every mask bit."""
    rng = np.random.default_rng(4)
    low = np.zeros(16, dtype=bool)
    low[[1, 6, 9, 14]] = True
    patterns = []
    for high in ([16, 23], [17, 31], [24, 30], [25, 31]):
        pattern = np.concatenate([low, np.zeros(16, dtype=bool)])
        pattern[high] = True
        patterns.append(pattern)
    mask = np.array(patterns)[rng.integers(0, 4, size=800)]
    data = rng.normal(size=(800, 32)) * mask
    groups = _pattern_groups(data, mask, 8, 1024)   # 16-row blocks
    assert len(groups) == 4
    for rows, aug, columns in groups:
        cols = columns[:columns.size // 2]
        assert cols.size == 6 and np.all(aug[:, cols.size:] == 1.0)
        assert np.all(mask[rows] == mask[rows[0]])
    assert sorted(np.concatenate([g[0] for g in groups])) == list(range(800))
    _assert_same_run(data, mask, 8, seed=0, block_bytes=1024)


def test_nm_masks_at_d32_match_full_width():
    rng = np.random.default_rng(4)
    data, mask = _nm(2, 8, 32)(rng, 3000)
    _assert_same_run(data * mask, mask, 8, seed=0, block_bytes=1024)
    _assert_same_run(data * mask, mask, 8, seed=0)


@pytest.mark.parametrize("block_bytes", [None, 1024])
def test_fully_pruned_rows_take_codeword_zero(block_bytes):
    """A row with no kept coordinate scores 0 against every codeword
    (a K=0 GEMM), so its argmin is 0, as under the full-width form."""
    rng = np.random.default_rng(6)
    data = rng.normal(size=(300, 8))
    mask = rng.random((300, 8)) < 0.5
    mask[:150] = False
    codewords = rng.normal(size=(16, 8))
    got = masked_assign(data, mask, codewords, block_bytes=block_bytes)
    assert np.all(got[:150] == 0)
    ref = _ref_argmin(data * mask, mask.astype(float), codewords, block_bytes)
    assert got.tobytes() == ref.tobytes()
    _assert_same_run(data * mask, mask, 16, seed=2, block_bytes=block_bytes)


@pytest.mark.parametrize("block_bytes", [None, 1024])
def test_fully_kept_rows(block_bytes):
    rng = np.random.default_rng(8)
    data = rng.normal(size=(400, 8))
    mask = rng.random((400, 8)) < 0.5
    mask[::2] = True
    codewords = rng.normal(size=(16, 8))
    got = masked_assign(data, mask, codewords, block_bytes=block_bytes)
    ref = _ref_argmin(data * mask, mask.astype(float), codewords, block_bytes)
    assert got.tobytes() == ref.tobytes()
    _assert_same_run(data * mask, mask, 16, seed=2, block_bytes=block_bytes)


# -- Eq. 2 / Eq. 4 on input that is not pre-masked -----------------------------

def test_unmasked_input_follows_eq2_and_eq4():
    """Pruned values of the input are ignored by assign, update and
    distances: each matches the brute force over kept coordinates only."""
    rng = np.random.default_rng(3)
    data = rng.normal(size=(400, 8))          # not pre-masked
    mask = nm_prune_mask(rng.normal(size=(400, 8)), 2, 8)
    codewords = rng.normal(size=(16, 8))

    brute = ((data[:, None, :] - codewords[None]) ** 2 * mask[:, None, :]).sum(axis=2)
    assert np.allclose(masked_distances(data, mask, codewords), brute)
    assignments = masked_assign(data, mask, codewords)
    assert np.array_equal(assignments, np.argmin(brute, axis=1))

    updated = masked_update(data, mask, assignments, 16, codewords)
    for c in range(16):
        members = assignments == c
        for j in range(8):
            kept = data[members & mask[:, j], j]
            expect = kept.mean() if kept.size else codewords[c, j]
            assert np.isclose(updated[c, j], expect)
