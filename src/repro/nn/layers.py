"""Parameterised and stateless layers with explicit forward/backward passes."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.tensor import Parameter


class Conv2d(Module):
    """2D convolution (NCHW).  Supports dense and depthwise variants.

    ``groups`` may be either 1 (dense) or ``in_channels`` (depthwise) —
    the two cases the paper's model zoo needs.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        groups: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if groups not in (1, in_channels):
            raise ValueError("Conv2d supports groups=1 (dense) or groups=in_channels (depthwise)")
        if groups == in_channels > 1 and out_channels != in_channels:
            raise ValueError("depthwise convolution requires out_channels == in_channels")
        rng = rng or init.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.depthwise = groups == in_channels and groups > 1

        if self.depthwise:
            w_shape = (out_channels, 1, kernel_size, kernel_size)
            fan_in = kernel_size * kernel_size
        else:
            w_shape = (out_channels, in_channels, kernel_size, kernel_size)
            fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(init.kaiming_normal(w_shape, fan_in, rng), name="weight")
        self.bias = Parameter(np.zeros(out_channels), name="bias") if bias else None

        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # entering the parameterised stack: adopt the model's compute dtype
        x = np.asarray(x).astype(self.weight.value.dtype, copy=False)
        bias = self.bias.value if self.bias is not None else None
        if self.depthwise:
            out, cols = F.depthwise_conv2d_forward(
                x, self.weight.value, bias, self.stride, self.padding
            )
        else:
            out, cols = F.conv2d_forward(
                x, self.weight.value, bias, self.stride, self.padding
            )
        self._cache = (cols, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, x_shape = self._cache
        with_bias = self.bias is not None
        if self.depthwise:
            grad_x, grad_w, grad_b = F.depthwise_conv2d_backward(
                grad_out, cols, x_shape, self.weight.value, self.stride, self.padding, with_bias
            )
        else:
            grad_x, grad_w, grad_b = F.conv2d_backward(
                grad_out, cols, x_shape, self.weight.value, self.stride, self.padding, with_bias
            )
        self.weight.accumulate_grad(grad_w)
        if with_bias:
            self.bias.accumulate_grad(grad_b)
        return grad_x


class Linear(Module):
    """Fully connected layer over the last dimension."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or init.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((out_features, in_features), in_features, out_features, rng),
            name="weight",
        )
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x).astype(self.weight.value.dtype, copy=False)
        self._cache = x
        # one GEMM per sample (leading axis): batch-invariant output bits
        rows = x.reshape(-1, self.in_features)
        out = F.sample_matmul(rows, self.weight.value.T,
                              x.shape[0] if x.ndim > 1 else 1)
        out = out.reshape(*x.shape[:-1], self.out_features)
        if self.bias is not None:
            out += self.bias.value
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._cache
        if x is None:
            raise RuntimeError("backward called before forward")
        x2d = x.reshape(-1, self.in_features)
        g2d = grad_out.reshape(-1, self.out_features)
        self.weight.accumulate_grad(g2d.T @ x2d)
        if self.bias is not None:
            self.bias.accumulate_grad(g2d.sum(axis=0))
        return grad_out @ self.weight.value


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of NCHW tensors."""

    _buffer_names = ("running_mean", "running_var")

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features), name="gamma")
        self.beta = Parameter(np.zeros(num_features), name="beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # statistics are accumulation-sensitive: always reduce in float64,
        # whatever dtype the activations run in
        if self.training:
            mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
            var = x.var(axis=(0, 2, 3), dtype=np.float64)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean = self.running_mean
            var = self.running_var

        inv_std = (1.0 / np.sqrt(var + self.eps)).astype(x.dtype)
        mean = mean.astype(x.dtype)
        # same arithmetic as (x - mean) * inv_std * gamma + beta, updating
        # the two fresh temporaries in place: two fewer activation-sized
        # allocations, which a large batch feels (gamma and beta share one
        # dtype, so the in-place add casts nothing)
        x_hat = x - mean[None, :, None, None]
        x_hat *= inv_std[None, :, None, None]
        out = self.gamma.value[None, :, None, None] * x_hat
        out += self.beta.value[None, :, None, None]
        self._cache = (x_hat, inv_std, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, inv_std, x_shape = self._cache
        n, c, h, w = x_shape
        m = n * h * w

        self.gamma.accumulate_grad((grad_out * x_hat).sum(axis=(0, 2, 3), dtype=np.float64))
        self.beta.accumulate_grad(grad_out.sum(axis=(0, 2, 3), dtype=np.float64))

        g = grad_out * self.gamma.value[None, :, None, None]
        if self.training:
            # full batch-norm gradient (means reduced in float64)
            sum_g = g.sum(axis=(0, 2, 3), keepdims=True, dtype=np.float64).astype(g.dtype)
            sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True, dtype=np.float64).astype(g.dtype)
            grad_x = (
                inv_std[None, :, None, None]
                * (g - sum_g / m - x_hat * sum_gx / m)
            )
        else:
            grad_x = g * inv_std[None, :, None, None]
        return grad_x


class ReLU(Module):
    def __init__(self):
        super().__init__()
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask


class ReLU6(Module):
    """ReLU clipped at 6, used by MobileNets."""

    def __init__(self):
        super().__init__()
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = (x > 0) & (x < 6.0)
        return np.clip(x, 0.0, 6.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        cols = F.im2col(
            x.reshape(n * c, 1, h, w), (k, k), self.stride, self.padding
        )  # (N*C*oh*ow, k*k)
        out_h = F.conv_output_size(h, k, self.stride, self.padding)
        out_w = F.conv_output_size(w, k, self.stride, self.padding)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._cache = (argmax, cols.shape, (n, c, h, w), out_h, out_w)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        argmax, cols_shape, x_shape, out_h, out_w = self._cache
        n, c, h, w = x_shape
        k = self.kernel_size
        grad_cols = np.zeros(cols_shape, dtype=grad_out.dtype)
        grad_cols[np.arange(cols_shape[0]), argmax] = grad_out.reshape(-1)
        grad_x = F.col2im(
            grad_cols, (n * c, 1, h, w), (k, k), self.stride, self.padding
        )
        return grad_x.reshape(n, c, h, w)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        cols = F.im2col(x.reshape(n * c, 1, h, w), (k, k), self.stride, self.padding)
        out_h = F.conv_output_size(h, k, self.stride, self.padding)
        out_w = F.conv_output_size(w, k, self.stride, self.padding)
        out = cols.mean(axis=1)
        self._cache = (cols.shape, (n, c, h, w))
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        cols_shape, x_shape = self._cache
        n, c, h, w = x_shape
        k = self.kernel_size
        grad_cols = np.repeat(
            grad_out.reshape(-1, 1) / (k * k), k * k, axis=1
        )
        grad_x = F.col2im(grad_cols, (n * c, 1, h, w), (k, k), self.stride, self.padding)
        return grad_x.reshape(n, c, h, w)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, keeping (N, C)."""

    def __init__(self):
        super().__init__()
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = self._cache
        return np.broadcast_to(
            grad_out[:, :, None, None] / (h * w), (n, c, h, w)
        ).copy()


class Flatten(Module):
    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or init.default_rng()
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        self._mask = ((self.rng.random(x.shape) >= self.p) / (1.0 - self.p)).astype(x.dtype)
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Add(Module):
    """Elementwise addition of two activation tensors (residual join).

    This module is stateless; composite blocks call ``forward(a, b)`` and
    route the single incoming gradient to both branches themselves.
    """

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:  # type: ignore[override]
        return a + b

    def backward(self, grad_out: np.ndarray):  # type: ignore[override]
        return grad_out, grad_out


class LayerNorm(Module):
    """Layer normalisation over the last dimension (transformer style)."""

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), name="gamma")
        self.beta = Parameter(np.zeros(num_features), name="beta")
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        # reductions in float64, like BatchNorm2d: normalisation statistics
        # are accumulation-sensitive whatever dtype activations run in
        mean = x.mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
        var = x.var(axis=-1, keepdims=True, dtype=np.float64)
        inv_std = (1.0 / np.sqrt(var + self.eps)).astype(x.dtype)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return self.gamma.value * x_hat + self.beta.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std = self._cache
        reduce_axes = tuple(range(grad_out.ndim - 1))
        self.gamma.accumulate_grad(
            (grad_out * x_hat).sum(axis=reduce_axes, dtype=np.float64))
        self.beta.accumulate_grad(grad_out.sum(axis=reduce_axes, dtype=np.float64))
        g = grad_out * self.gamma.value
        g_mean = g.mean(axis=-1, keepdims=True)
        gx_mean = (g * x_hat).mean(axis=-1, keepdims=True)
        return inv_std * (g - g_mean - x_hat * gx_mean)


class SequenceMean(Module):
    """Mean over the token dimension of (batch, seq, features) tensors."""

    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, s, e = self._shape
        return np.broadcast_to(grad_out[:, None, :] / s, (n, s, e)).copy()


class MultiHeadAttention(Module):
    """Multi-head self-attention over (batch, seq, embed) activations.

    The four projections (query/key/value/output) are ordinary
    :class:`Linear` layers, so the MVQ compressor (``include_linear=True``)
    vector-quantizes them like any other weight matrix and the
    compressed-domain engines serve them unchanged.  The score and context
    GEMMs are activation-activation products and carry no weights.
    """

    def __init__(self, embed_dim: int, num_heads: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(
                f"embed_dim ({embed_dim}) must be divisible by num_heads "
                f"({num_heads})")
        rng = rng or init.default_rng()
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.q = Linear(embed_dim, embed_dim, bias=bias, rng=rng)
        self.k = Linear(embed_dim, embed_dim, bias=bias, rng=rng)
        self.v = Linear(embed_dim, embed_dim, bias=bias, rng=rng)
        self.out = Linear(embed_dim, embed_dim, bias=bias, rng=rng)
        self._cache = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        n, s, _ = x.shape
        return x.reshape(n, s, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _join_heads(self, x: np.ndarray) -> np.ndarray:
        n, h, s, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(n, s, h * d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if np.ndim(x) != 3:
            raise ValueError(
                f"attention expects (batch, seq, embed) input, got shape "
                f"{np.shape(x)}")
        q = self._split_heads(self.q.forward(x))       # (N, H, S, D)
        k = self._split_heads(self.k.forward(x))
        v = self._split_heads(self.v.forward(x))
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale  # (N, H, S, S)
        scores -= scores.max(axis=-1, keepdims=True)    # stable softmax
        attn = np.exp(scores)
        attn /= attn.sum(axis=-1, keepdims=True)
        context = attn @ v                              # (N, H, S, D)
        self._cache = (q, k, v, attn, scale)
        return self.out.forward(self._join_heads(context))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        q, k, v, attn, scale = self._cache
        g_context = self._split_heads(self.out.backward(grad_out))
        g_attn = g_context @ v.transpose(0, 1, 3, 2)
        g_v = attn.transpose(0, 1, 3, 2) @ g_context
        # softmax jacobian: dS = A * (dA - sum(dA * A))
        g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))
        g_q = (g_scores @ k) * scale
        g_k = (g_scores.transpose(0, 1, 3, 2) @ q) * scale
        grad_x = self.q.backward(self._join_heads(g_q))
        grad_x = grad_x + self.k.backward(self._join_heads(g_k))
        grad_x = grad_x + self.v.backward(self._join_heads(g_v))
        return grad_x


class Upsample2d(Module):
    """Nearest-neighbour spatial upsampling by an integer factor."""

    def __init__(self, scale: int = 2):
        super().__init__()
        if scale < 1:
            raise ValueError("scale must be >= 1")
        self.scale = scale

    def forward(self, x: np.ndarray) -> np.ndarray:
        s = self.scale
        return x.repeat(s, axis=2).repeat(s, axis=3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        s = self.scale
        n, c, h, w = grad_out.shape
        return (
            grad_out.reshape(n, c, h // s, s, w // s, s).sum(axis=(3, 5))
        )
