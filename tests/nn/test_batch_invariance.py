"""Batch-invariant forwards: a sample's output bits never depend on its batch.

Forwarding any subset of a batch, in any order and at any size, must give
rows bit-equal to forwarding each sample alone: for every exact engine mode
of the compressed layers, every grouping strategy with and without a mask,
and the plain ``Conv2d`` and ``Linear`` layers.  This is what lets the
server run each batch at its real size and stay bit-exact.  Each example
also runs at the 64 KiB block-budget floor, where the LUT engine cuts
samples into row pieces.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.core.codebook import Codebook
from repro.core.grouping import GroupingStrategy, grouped_shape
from repro.core.precision import precision
from repro.nn import Conv2d, Linear
from repro.nn.compressed import CompressedConv2d, CompressedLinear
from repro.nn.models import resnet18_mini

EXACT_MODES = ("dense", "lut")


def _assert_batch_invariant(module, x, order):
    """``module`` on ``x[order]`` equals ``module`` on each sample alone."""
    singles = [np.asarray(module.forward(x[i:i + 1]))[0] for i in range(len(x))]
    batched = np.asarray(module.forward(x[order]))
    assert batched.shape[0] == len(order)
    for row, i in zip(batched, order):
        np.testing.assert_array_equal(row, singles[i])


@st.composite
def _orders(draw, samples):
    """Indices into a batch of ``samples``: any size, order and repeats."""
    return draw(st.lists(st.integers(0, samples - 1), min_size=1,
                         max_size=2 * samples))


@st.composite
def _layer_shapes(draw, conv):
    """``(c_in, c_out, kernel, stride, padding, hw)`` of a small layer."""
    kernel = draw(st.sampled_from((1, 3))) if conv else 1
    padding = draw(st.integers(0, 1)) if conv else 0
    stride = draw(st.integers(1, 2)) if conv else 1
    hw = draw(st.integers(max(1, kernel - 2 * padding), 6)) if conv else 0
    return (draw(st.integers(1, 12)), draw(st.integers(1, 12)), kernel,
            stride, padding, hw)


def _inputs(rng, samples, conv, c_in, hw, seq):
    if conv:
        return rng.normal(size=(samples, c_in, hw, hw))
    if seq:
        return rng.normal(size=(samples, seq, c_in))
    return rng.normal(size=(samples, c_in))


@st.composite
def _compressed_cases(draw):
    strategy = draw(st.sampled_from(tuple(GroupingStrategy)))
    conv = draw(st.booleans())
    c_in, c_out, kernel, stride, padding, hw = draw(_layer_shapes(conv))
    if strategy is GroupingStrategy.KERNEL:
        d = kernel * kernel
    else:
        d = draw(st.sampled_from((1, 2, 4)))
        blocks = draw(st.integers(1, 4))
        if strategy is GroupingStrategy.OUTPUT:
            c_out = d * blocks
        else:
            c_in = d * blocks
    return {
        "strategy": strategy, "conv": conv, "c_in": c_in, "c_out": c_out,
        "kernel": kernel, "stride": stride, "padding": padding, "hw": hw, "d": d,
        "k": draw(st.integers(2, 24)), "masked": draw(st.booleans()),
        "bias": draw(st.booleans()), "mode": draw(st.sampled_from(EXACT_MODES)),
        "dtype": draw(st.sampled_from(("float64", "float32"))),
        "seq": 0 if conv else draw(st.integers(0, 3)),
        "samples": draw(st.integers(1, 5)), "seed": draw(st.integers(0, 2**16)),
    }


def _compressed_module(case, rng):
    shape = (case["c_out"], case["c_in"], case["kernel"], case["kernel"])
    n_g, d = grouped_shape(shape if case["conv"] else shape[:2], case["d"],
                           case["strategy"])
    codebook = Codebook(rng.normal(size=(case["k"], d)))
    assignments = rng.integers(0, case["k"], size=n_g)
    mask = rng.random((n_g, d)) < 0.5 if case["masked"] else None
    bias = rng.normal(size=case["c_out"]) if case["bias"] else None
    common = dict(codebook=codebook, assignments=assignments, mask=mask,
                  d=case["d"], strategy=case["strategy"], bias=bias,
                  mode=case["mode"], dtype=case["dtype"])
    if case["conv"]:
        return CompressedConv2d(case["c_in"], case["c_out"], case["kernel"],
                                stride=case["stride"], padding=case["padding"],
                                **common)
    return CompressedLinear(case["c_in"], case["c_out"], **common)


class TestCompressedLayers:
    @settings(max_examples=80, deadline=None)
    @given(case=_compressed_cases(), data=st.data())
    def test_any_subset_matches_per_sample_forwards(self, case, data):
        rng = np.random.default_rng(case["seed"])
        module = _compressed_module(case, rng)
        x = _inputs(rng, case["samples"], case["conv"], case["c_in"],
                    case["hw"], case["seq"])
        order = data.draw(_orders(case["samples"]))
        _assert_batch_invariant(module, x, order)
        assert module.engine.last_mode == case["mode"]
        with precision(block_bytes=1 << 16):
            _assert_batch_invariant(module, x, order)


class TestPlainLayers:
    @settings(max_examples=40, deadline=None)
    @given(shape=_layer_shapes(conv=True), depthwise=st.booleans(),
           samples=st.integers(1, 5), seed=st.integers(0, 2**16), data=st.data())
    def test_conv2d(self, shape, depthwise, samples, seed, data):
        c_in, c_out, kernel, stride, padding, hw = shape
        rng = np.random.default_rng(seed)
        groups = c_in if depthwise else 1
        layer = Conv2d(c_in, c_in if depthwise else c_out, kernel,
                       stride=stride, padding=padding, groups=groups, rng=rng)
        x = _inputs(rng, samples, True, c_in, hw, 0)
        _assert_batch_invariant(layer, x, data.draw(_orders(samples)))

    @settings(max_examples=40, deadline=None)
    @given(c_in=st.integers(1, 96), c_out=st.integers(1, 96),
           seq=st.integers(0, 3), samples=st.integers(1, 5),
           seed=st.integers(0, 2**16), data=st.data())
    def test_linear(self, c_in, c_out, seq, samples, seed, data):
        rng = np.random.default_rng(seed)
        layer = Linear(c_in, c_out, rng=rng)
        x = _inputs(rng, samples, False, c_in, 0, seq)
        _assert_batch_invariant(layer, x, data.draw(_orders(samples)))


def test_compressed_resnet_in_every_exact_mode(rng):
    """The whole served architecture: BatchNorm, pooling, residual adds."""
    model = resnet18_mini(num_classes=5, seed=2)
    MVQCompressor(LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=2)
                  ).export_compressed_model(model)
    model.eval()
    x = rng.normal(size=(5, 3, 16, 16))
    engines = [m.engine for _, m in model.named_modules()
               if getattr(m, "engine", None) is not None]
    for mode in EXACT_MODES:
        for engine in engines:
            engine.mode = mode
        _assert_batch_invariant(model, x, [4, 0, 2])
        _assert_batch_invariant(model, x, [1, 3, 3, 0, 2, 4, 1])
