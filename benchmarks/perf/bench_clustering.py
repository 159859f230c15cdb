"""Clustering throughput: masked k-means under both compute precisions.

The headline workload is the acceptance-criteria one: 16384 subvectors of
d=8 under a 2:8 mask with k=256 codewords, a ResNet-scale layer.  Every
variant runs the same fixed number of Lloyd iterations
(``change_threshold=0``) so timings compare like with like.

``masked_fp64_s`` runs under the default distance block budget
(``block_bytes`` in the report); ``masked_fp64_block_64MiB_s`` repeats it
under the former 64 MiB default, so every report shows what cache-sized
blocks buy on its host.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from benchmarks.perf._timing import best_of
from repro.core import precision
from repro.core.kmeans import kmeans
from repro.core.masked_kmeans import masked_kmeans
from repro.core.pruning import nm_prune_mask

FULL = dict(n=16384, d=8, k=256, n_keep=2, m=8, iterations=15, repeats=3)
# best-of-3: compare_perf times masked_fp64_s / masked_fp32_s against the
# parent commit
SMOKE = dict(n=4096, d=8, k=64, n_keep=2, m=8, iterations=5, repeats=3)
#: the default distance block budget before it was cut to 1 MiB
FIXED_64MIB_BLOCK_BYTES = 64 << 20


def _workload(n: int, d: int, n_keep: int, m: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    mask = nm_prune_mask(data, n_keep, m)
    return data * mask, mask


def run(smoke: bool = False) -> Dict[str, object]:
    p = SMOKE if smoke else FULL
    data, mask = _workload(p["n"], p["d"], p["n_keep"], p["m"])
    k, iters, repeats = p["k"], p["iterations"], p["repeats"]
    rng = np.random.default_rng(0)
    init = data[rng.choice(data.shape[0], size=k, replace=False)].copy()

    def timed_masked(**kwargs):
        return best_of(
            lambda: masked_kmeans(data, mask, k, max_iterations=iters,
                                  change_threshold=0.0, init_codewords=init,
                                  **kwargs),
            repeats)

    masked_fp64_s = timed_masked()
    with precision.precision("float32"):
        masked_fp32_s = timed_masked()
    chunked_s = timed_masked(block_bytes=1 << 20)
    fixed_64mib_s = timed_masked(block_bytes=FIXED_64MIB_BLOCK_BYTES)
    minibatch_s = timed_masked(minibatch=max(256, p["n"] // 8))
    plain_fp64_s = best_of(
        lambda: kmeans(data, k, max_iterations=iters, change_threshold=0.0,
                       init_codewords=init),
        repeats)
    kpp_s = best_of(
        lambda: masked_kmeans(data, mask, k, max_iterations=iters,
                              change_threshold=0.0, init="kmeans++"),
        1)

    subvectors = p["n"] * iters
    return {
        "workload": {key: p[key] for key in ("n", "d", "k", "n_keep", "m", "iterations")},
        "block_bytes": precision.distance_block_bytes(),
        "masked_fp64_s": masked_fp64_s,
        "masked_fp32_s": masked_fp32_s,
        "masked_fp64_chunked_1MiB_s": chunked_s,
        "masked_fp64_block_64MiB_s": fixed_64mib_s,
        "masked_minibatch_s": minibatch_s,
        "masked_kmeanspp_s": kpp_s,
        "plain_fp64_s": plain_fp64_s,
        "assignments_per_s_fp64": subvectors / masked_fp64_s,
        "assignments_per_s_fp32": subvectors / masked_fp32_s,
    }
