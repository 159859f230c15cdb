"""Tests for the low-level conv/im2col kernels, including gradient checks."""

import numpy as np
import pytest

from repro.nn import functional as F


def reference_conv2d(x, weight, bias, stride, padding):
    """Naive nested-loop convolution used as the ground truth."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, out_h, out_w))
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = xp[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[b, o, i, j] = np.sum(patch * weight[o])
            if bias is not None:
                out[b, o] += bias[o]
    return out


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(8, 3, 1, 1) == 8
        assert F.conv_output_size(8, 3, 2, 1) == 4
        assert F.conv_output_size(7, 1, 1, 0) == 7

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_roundtrip_shapes(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = F.im2col(x, (3, 3), 1, 1)
        assert cols.shape == (2 * 8 * 8, 3 * 9)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols = F.im2col(x, (3, 3), 1, 1)
        y = rng.normal(size=cols.shape)
        lhs = np.sum(cols * y)
        rhs = np.sum(x * F.col2im(y, x.shape, (3, 3), 1, 1))
        assert np.isclose(lhs, rhs)

    def test_stride_two(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        cols = F.im2col(x, (3, 3), 2, 1)
        assert cols.shape == (4 * 4, 2 * 9)


class TestConv2dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0), (2, 2)])
    def test_matches_reference(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, _ = F.conv2d_forward(x, w, b, stride, padding)
        ref = reference_conv2d(x, w, b, stride, padding)
        assert np.allclose(out, ref)

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 8, 8))
        w = rng.normal(size=(4, 5, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None, 1, 1)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        out, _ = F.conv2d_forward(x, w, None, 1, 1)
        ref = reference_conv2d(x, w, None, 1, 1)
        assert np.allclose(out, ref)


class TestConv2dBackward:
    def _numeric_grad(self, f, x, eps=1e-6):
        grad = np.zeros_like(x)
        flat = x.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus = f()
            flat[i] = orig - eps
            minus = f()
            flat[i] = orig
            gflat[i] = (plus - minus) / (2 * eps)
        return grad

    def test_weight_gradient_matches_numeric(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = np.zeros(3)
        upstream = rng.normal(size=(1, 3, 5, 5))

        out, cols = F.conv2d_forward(x, w, b, 1, 1)
        _, grad_w, grad_b = F.conv2d_backward(upstream, cols, x.shape, w, 1, 1)

        def loss():
            o, _ = F.conv2d_forward(x, w, b, 1, 1)
            return float(np.sum(o * upstream))

        num_grad_w = self._numeric_grad(loss, w)
        assert np.allclose(grad_w, num_grad_w, atol=1e-4)
        assert np.allclose(grad_b, upstream.sum(axis=(0, 2, 3)))

    def test_input_gradient_matches_numeric(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        upstream = rng.normal(size=(1, 3, 5, 5))
        out, cols = F.conv2d_forward(x, w, None, 1, 1)
        grad_x, _, _ = F.conv2d_backward(upstream, cols, x.shape, w, 1, 1, with_bias=False)

        def loss():
            o, _ = F.conv2d_forward(x, w, None, 1, 1)
            return float(np.sum(o * upstream))

        num_grad_x = self._numeric_grad(loss, x)
        assert np.allclose(grad_x, num_grad_x, atol=1e-4)


class TestDepthwiseConv:
    def test_matches_per_channel_dense(self, rng):
        x = rng.normal(size=(2, 4, 6, 6))
        w = rng.normal(size=(4, 1, 3, 3))
        out, _ = F.depthwise_conv2d_forward(x, w, None, 1, 1)
        for c in range(4):
            dense, _ = F.conv2d_forward(x[:, c:c+1], w[c:c+1], None, 1, 1)
            assert np.allclose(out[:, c:c+1], dense)

    def test_backward_weight_gradient(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(3, 1, 3, 3))
        upstream = rng.normal(size=(1, 3, 5, 5))
        out, cols = F.depthwise_conv2d_forward(x, w, None, 1, 1)
        _, grad_w, _ = F.depthwise_conv2d_backward(upstream, cols, x.shape, w, 1, 1, with_bias=False)

        eps = 1e-6
        num = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            w[idx] += eps
            plus = float(np.sum(F.depthwise_conv2d_forward(x, w, None, 1, 1)[0] * upstream))
            w[idx] -= 2 * eps
            minus = float(np.sum(F.depthwise_conv2d_forward(x, w, None, 1, 1)[0] * upstream))
            w[idx] += eps
            num[idx] = (plus - minus) / (2 * eps)
        assert np.allclose(grad_w, num, atol=1e-4)

    def test_shape_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(4, 1, 3, 3))
        with pytest.raises(ValueError):
            F.depthwise_conv2d_forward(x, w, None, 1, 1)


class TestActivationHelpers:
    def test_softmax_sums_to_one(self, rng):
        x = rng.normal(size=(5, 7)) * 10
        s = F.softmax(x, axis=1)
        assert np.allclose(s.sum(axis=1), 1.0)
        assert (s >= 0).all()

    def test_log_softmax_consistency(self, rng):
        x = rng.normal(size=(4, 6))
        assert np.allclose(F.log_softmax(x), np.log(F.softmax(x)))

    def test_sigmoid_extreme_values_stable(self):
        x = np.array([-1e4, -10.0, 0.0, 10.0, 1e4])
        s = F.sigmoid(x)
        assert np.all(np.isfinite(s))
        assert np.isclose(s[2], 0.5)
        assert s[0] < 1e-4 and s[-1] > 1 - 1e-4


class TestIm2colBuffer:
    def test_out_buffer_reused(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols = F.im2col(x, (3, 3), 1, 1)
        buf = np.empty_like(cols)
        result = F.im2col(x, (3, 3), 1, 1, out=buf)
        assert result is buf
        np.testing.assert_array_equal(result, cols)

    def test_out_buffer_shape_checked(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        with pytest.raises(ValueError):
            F.im2col(x, (3, 3), 1, 1, out=np.empty((1, 1)))
        with pytest.raises(ValueError):
            F.im2col(x, (3, 3), 1, 1,
                     out=np.empty((2 * 6 * 6, 27), dtype=np.float32))

    def test_matches_naive_receptive_fields(self, rng):
        """Each row is one receptive field in (C, kh, kw) layout — checked
        against a direct loop over output positions."""
        x = rng.normal(size=(2, 3, 5, 7))
        stride, padding, k = 2, 1, 3
        cols = F.im2col(x, (k, k), stride, padding)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        out_h = (5 + 2 * padding - k) // stride + 1
        out_w = (7 + 2 * padding - k) // stride + 1
        row = 0
        for n in range(2):
            for i in range(out_h):
                for j in range(out_w):
                    field = xp[n, :, i * stride:i * stride + k,
                               j * stride:j * stride + k]
                    np.testing.assert_array_equal(cols[row], field.reshape(-1))
                    row += 1

    @pytest.mark.parametrize("stride, padding, k", [(1, 1, 3), (2, 1, 3),
                                                    (2, 0, 1), (1, 0, 3)])
    def test_channels_last_input_gives_the_same_columns(self, rng, stride,
                                                        padding, k):
        """A channels-last input (a conv output seen through its NCHW
        transpose) is padded channels-last; its columns are the NCHW ones."""
        x_nhwc = rng.normal(size=(3, 6, 7, 4))
        x = x_nhwc.transpose(0, 3, 1, 2)
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(
            F.im2col(x, (k, k), stride, padding),
            F.im2col(np.ascontiguousarray(x), (k, k), stride, padding))
