"""End-to-end model compression wall-time: sequential vs parallel layer
clustering, float64 vs float32 compute policy.

Smoke mode compresses the repo's ResNet-18-mini; full mode compresses a
synthetic conv stack with ResNet-scale layer shapes (up to 512x512x3x3,
~half a million d=8 subvectors total) so the wall-time actually exercises
the clustering engine rather than benchmark overhead.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from benchmarks.perf._timing import best_of
from repro.core import LayerCompressionConfig, MVQCompressor, cpu, precision
from repro.nn import Conv2d, Sequential
from repro.nn.models import resnet18_mini

FULL = dict(k=128, d=8, iterations=10, workers=4, repeats=2)
SMOKE = dict(k=16, d=8, iterations=5, workers=2, repeats=1)

#: (in_channels, out_channels) of the full-mode synthetic stack; 3x3 kernels.
FULL_STAGES = ((64, 128), (128, 256), (256, 512), (512, 512))


def _scaled_convnet() -> Sequential:
    rng = np.random.default_rng(7)
    return Sequential(*(Conv2d(c_in, c_out, 3, padding=1, rng=rng)
                        for c_in, c_out in FULL_STAGES))


def _build_model(smoke: bool):
    if smoke:
        return resnet18_mini(num_classes=5, seed=1), "resnet18_mini"
    return _scaled_convnet(), "conv_stack_512"


def _compress(model, cfg: LayerCompressionConfig, workers=None):
    return MVQCompressor(cfg, workers=workers).compress(model)


def _identical(a, b) -> bool:
    if set(a.layers) != set(b.layers):
        return False
    for name, la in a.layers.items():
        lb = b.layers[name]
        if not np.array_equal(la.assignments, lb.assignments):
            return False
        if not np.array_equal(la.codebook.codewords, lb.codebook.codewords):
            return False
        if not np.array_equal(la.mask, lb.mask):
            return False
    return True


def run(smoke: bool = False) -> Dict[str, object]:
    p = SMOKE if smoke else FULL
    # clustering cost does not depend on training, so random init weights
    # make the bench self-contained (no multi-second training phase)
    model, model_name = _build_model(smoke)
    cfg = LayerCompressionConfig(k=p["k"], d=p["d"],
                                 max_kmeans_iterations=p["iterations"])

    sequential_s = best_of(lambda: _compress(model, cfg), p["repeats"])
    parallel_s = best_of(lambda: _compress(model, cfg, workers=p["workers"]),
                         p["repeats"])
    with precision.precision("float32"):
        fp32_s = best_of(lambda: _compress(model, cfg), p["repeats"])

    seq = _compress(model, cfg)
    # the equivalence check must exercise the real pool even on hosts with
    # fewer CPUs than workers (where the cap would silently fall back to
    # the sequential path and verify nothing)
    original_cpus = cpu.available_cpus
    cpu.available_cpus = lambda: p["workers"]
    try:
        matches = _identical(seq, _compress(model, cfg, workers=p["workers"]))
    finally:
        cpu.available_cpus = original_cpus
    subvectors = sum(state.num_subvectors for state in seq)
    return {
        "workload": {"model": model_name,
                     "layers": len(seq),
                     "subvectors": subvectors,
                     "available_cpus": cpu.available_cpus(),
                     **{key: p[key] for key in ("k", "d", "iterations", "workers")}},
        "sequential_fp64_s": sequential_s,
        "parallel_fp64_s": parallel_s,
        "sequential_fp32_s": fp32_s,
        "speedup_parallel": sequential_s / parallel_s,
        "speedup_fp32": sequential_s / fp32_s,
        "parallel_matches_sequential": matches,
    }
