"""Batched inference serving on top of the compressed-domain engine.

:func:`predict_batched` is the steady-state serving loop: it slices a
request stream into batches of at most ``batch_size`` rows and pushes each
through the model in eval mode, the last short batch at its real size.
Every compressed convolution im2cols into a prefix of one persistent
buffer, kept at the largest batch seen, so varying batch sizes do not
reallocate.

Batch-invariant kernels are what make dynamic batching (the
``repro.serve`` model server) *bit-exact*: every forward runs a
fixed-shape GEMM per sample (:func:`repro.nn.functional.sample_matmul`)
and the compressed engines chunk on whole samples, so a request served
alone produces the same bits as the same request coalesced with seven
strangers, at any batch size and in any position.
:func:`prepare_for_serving` warms a model's caches before the first
request.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module


def prepare_for_serving(model: Module, input_shape: Tuple[int, ...],
                        batch_size: int, dtype=np.float64) -> Module:
    """Warm ``model`` for serving batches of up to ``batch_size`` rows.

    Puts the model in eval mode and forwards one zero batch of shape
    ``(batch_size, *input_shape)`` so every compressed module builds its
    effective-codeword table / cached dense weight / im2col buffer (at the
    largest batch, so smaller ones reuse a prefix) *before* the first real
    request.  Returns the model for chaining.
    """
    model.eval()
    warm = np.zeros((batch_size, *input_shape), dtype=dtype)
    model.forward(warm)
    return model


def predict_batched(model: Module, inputs: np.ndarray,
                    batch_size: int = 32) -> np.ndarray:
    """Forward ``inputs`` through ``model`` in batches of ``batch_size`` rows.

    ``inputs`` stacks the requests, shape ``(num_samples, ...)``; the last
    batch may be short.  Outputs do not depend on ``batch_size``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    inputs = np.asarray(inputs)
    n = inputs.shape[0]
    was_training = model.training
    model.eval()
    try:
        outputs: Optional[np.ndarray] = None
        for lo in range(0, n, batch_size):
            out = np.asarray(model.forward(inputs[lo:lo + batch_size]))
            if outputs is None:
                outputs = np.empty((n, *out.shape[1:]), dtype=out.dtype)
            outputs[lo:lo + out.shape[0]] = out
        if outputs is None:
            raise ValueError("predict_batched needs at least one input row")
        return outputs
    finally:
        model.train(was_training)
