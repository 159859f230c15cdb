"""Low-level numerical kernels: im2col/col2im and convolution primitives.

Convolutions are implemented with the classic im2col lowering so that both
the forward pass and the weight/input gradients reduce to matrix products.
All tensors follow the NCHW layout used throughout the paper.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Lower ``x`` of shape (N, C, H, W) to columns.

    Returns an array of shape ``(N * out_h * out_w, C * kh * kw)`` where each
    row holds one receptive field.  The receptive fields are materialised
    from a zero-copy :func:`~numpy.lib.stride_tricks.sliding_window_view`,
    so the only data movement is the single final copy into row layout.

    ``out`` may supply a preallocated ``(N * out_h * out_w, C * kh * kw)``
    buffer (matching dtype) that receives that copy — serving loops reuse
    one buffer across calls instead of allocating per batch.

    Padding keeps the input's memory order: a channels-last input (a
    convolution's output seen through its NCHW transpose) is padded
    channels-last, which spares the padding copy a transpose and makes
    the final copy cheaper.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    # (N, H, W, C) or (N, C, H, W), whichever the input's memory order is
    channels_last = (not x.flags.c_contiguous
                     and x.transpose(0, 2, 3, 1).flags.c_contiguous)
    lowered = x.transpose(0, 2, 3, 1) if channels_last else x
    spatial = (1, 2) if channels_last else (2, 3)
    if padding > 0:
        pads = [(0, 0)] * 4
        for axis in spatial:
            pads[axis] = (padding, padding)
        lowered = np.pad(lowered, pads, mode="constant")

    # strided view of every receptive field, as (N, H', W', C, kh, kw)
    windows = np.lib.stride_tricks.sliding_window_view(lowered, (kh, kw),
                                                       axis=spatial)
    if not channels_last:
        windows = windows.transpose(0, 2, 3, 1, 4, 5)
    if stride > 1:
        windows = windows[:, ::stride, ::stride]

    rows, width = n * out_h * out_w, c * kh * kw
    if out is None:
        out = np.empty((rows, width), dtype=x.dtype)
    elif out.shape != (rows, width) or out.dtype != x.dtype:
        raise ValueError(
            f"im2col buffer must be {(rows, width)} {x.dtype}, "
            f"got {out.shape} {out.dtype}"
        )
    # (N, out_h, out_w, C, kh, kw) -> rows; the assignment is the one copy
    out.reshape(n, out_h, out_w, c, kh, kw)[...] = windows
    return out


def sample_matmul(rows: np.ndarray, w_t: np.ndarray, samples: int) -> np.ndarray:
    """``rows @ w_t`` as one fixed-shape GEMM per sample.

    ``rows`` stacks ``samples`` equal blocks of consecutive rows, one block
    per sample (its im2col rows, or its sequence positions).  BLAS picks its
    kernel by the row count (a 1-row product even runs as a GEMV), so one
    GEMM over the whole batch gives a sample different bits depending on
    what it was batched with; a GEMM per sample does not.  The operand is
    made contiguous first: numpy runs strided stacks through its own loop,
    whose summation order differs from BLAS.
    """
    per = rows.shape[0] // max(samples, 1)
    stacked = np.ascontiguousarray(rows).reshape(samples, per, rows.shape[1])
    return np.matmul(stacked, w_t).reshape(rows.shape[0], w_t.shape[1])


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to an image."""
    n, c, h, w = x_shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    cols = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            x_padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]

    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense 2D convolution forward.

    Parameters
    ----------
    x: (N, C_in, H, W)
    weight: (C_out, C_in, kh, kw)
    bias: (C_out,) or None

    Returns (output, cached_columns).
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in} vs weight {c_in_w}")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    cols = im2col(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(c_out, -1)
    out = sample_matmul(cols, w_mat.T, n)
    if bias is not None:
        out += bias
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    return out, cols


def conv2d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int,
    padding: int,
    with_bias: bool = True,
):
    """Gradients of a dense 2D convolution.

    Returns ``(grad_x, grad_weight, grad_bias)``; ``grad_bias`` is ``None``
    when ``with_bias`` is False.
    """
    c_out, _, kh, kw = weight.shape
    n = x_shape[0]
    # (N, C_out, out_h, out_w) -> (N*out_h*out_w, C_out)
    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c_out)

    grad_weight = (grad_mat.T @ cols).reshape(weight.shape)
    grad_bias = grad_mat.sum(axis=0) if with_bias else None

    w_mat = weight.reshape(c_out, -1)
    grad_cols = grad_mat @ w_mat
    grad_x = col2im(grad_cols, x_shape, (kh, kw), stride, padding)
    return grad_x, grad_weight, grad_bias


def depthwise_conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Depthwise convolution forward (one filter per input channel).

    weight has shape (C, 1, kh, kw).
    """
    n, c, h, w = x.shape
    c_w, one, kh, kw = weight.shape
    if c_w != c or one != 1:
        raise ValueError(f"depthwise weight shape {weight.shape} incompatible with input {x.shape}")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    cols = im2col(x, (kh, kw), stride, padding)  # (N*oh*ow, C*kh*kw)
    cols_c = cols.reshape(-1, c, kh * kw)
    w_mat = weight.reshape(c, kh * kw)
    out = np.einsum("pck,ck->pc", cols_c, w_mat)
    if bias is not None:
        out += bias
    out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
    return out, cols


def depthwise_conv2d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int,
    padding: int,
    with_bias: bool = True,
):
    """Gradients of a depthwise convolution."""
    c, _, kh, kw = weight.shape
    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c)  # (P, C)
    cols_c = cols.reshape(-1, c, kh * kw)  # (P, C, K)

    grad_weight = np.einsum("pc,pck->ck", grad_mat, cols_c).reshape(weight.shape)
    grad_bias = grad_mat.sum(axis=0) if with_bias else None

    w_mat = weight.reshape(c, kh * kw)
    grad_cols = np.einsum("pc,ck->pck", grad_mat, w_mat).reshape(cols.shape)
    grad_x = col2im(grad_cols, x_shape, (kh, kw), stride, padding)
    return grad_x, grad_weight, grad_bias


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out
