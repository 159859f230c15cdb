"""Convolution engine throughput: im2col conv forward/backward GFLOP/s
under the float64 and float32 compute policies."""

from __future__ import annotations

from typing import Dict

import numpy as np

from benchmarks.perf._timing import best_of
from repro.core import precision
from repro.nn import functional as F

FULL = dict(n=8, c_in=64, c_out=64, hw=16, kernel=3, repeats=3)
SMOKE = dict(n=2, c_in=16, c_out=16, hw=8, kernel=3, repeats=1)


def _conv_flops(n: int, c_in: int, c_out: int, hw: int, kernel: int) -> float:
    out_hw = hw  # stride 1, same padding
    return 2.0 * n * c_out * c_in * kernel * kernel * out_hw * out_hw


def _run_dtype(p: Dict[str, int], dtype: str) -> Dict[str, float]:
    rng = np.random.default_rng(0)
    with precision.precision(dtype):
        dt = precision.compute_dtype()
        x = rng.normal(size=(p["n"], p["c_in"], p["hw"], p["hw"])).astype(dt)
        w = rng.normal(size=(p["c_out"], p["c_in"], p["kernel"], p["kernel"])).astype(dt)
        b = np.zeros(p["c_out"], dtype=dt)
        pad = p["kernel"] // 2

        out, cols = F.conv2d_forward(x, w, b, stride=1, padding=pad)
        grad = np.ones_like(out)

        fwd_s = best_of(lambda: F.conv2d_forward(x, w, b, 1, pad), p["repeats"])
        bwd_s = best_of(
            lambda: F.conv2d_backward(grad, cols, x.shape, w, 1, pad), p["repeats"])
        im2col_s = best_of(
            lambda: F.im2col(x, (p["kernel"], p["kernel"]), 1, pad), p["repeats"])

    flops = _conv_flops(p["n"], p["c_in"], p["c_out"], p["hw"], p["kernel"])
    return {
        "forward_s": fwd_s,
        "backward_s": bwd_s,
        "forward_gflops": flops / fwd_s / 1e9,
        # backward does roughly 2x the forward work (grad_w + grad_x GEMMs)
        "backward_gflops": 2.0 * flops / bwd_s / 1e9,
        "im2col_s": im2col_s,
    }


def run(smoke: bool = False) -> Dict[str, object]:
    p = SMOKE if smoke else FULL
    return {
        "workload": {key: p[key] for key in ("n", "c_in", "c_out", "hw", "kernel")},
        "fp64": _run_dtype(p, "float64"),
        "fp32": _run_dtype(p, "float32"),
    }
