"""Schema validation: bad specs fail at load time naming the field."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import WorkloadSpec, WorkloadSpecError
from repro.workloads.specs import BUILTIN_SPECS


def _spec(layers, input_shape=(3, 8, 8), **kwargs):
    return WorkloadSpec(name="t", input_shape=input_shape, layers=layers,
                        **kwargs)


_CONV = {"name": "c1", "op": "conv",
         "dims": {"in_channels": 3, "out_channels": 8, "kernel_size": 3,
                  "padding": 1}}


class TestValidation:
    def test_unknown_op(self):
        with pytest.raises(WorkloadSpecError, match=r"layers\[0\].op.*unknown op"):
            _spec([{"name": "x", "op": "deconv", "dims": {}}])

    def test_unknown_dims_key(self):
        bad = dict(_CONV, dims=dict(_CONV["dims"], dilation=2))
        with pytest.raises(WorkloadSpecError,
                           match=r"layers\[0\].dims.*does not accept"):
            _spec([bad])

    def test_missing_required_dim(self):
        with pytest.raises(WorkloadSpecError,
                           match=r"layers\[0\].dims.kernel_size.*requires"):
            _spec([{"name": "c", "op": "conv",
                    "dims": {"in_channels": 3, "out_channels": 8}}])

    def test_channel_mismatch(self):
        bad = dict(_CONV, dims=dict(_CONV["dims"], in_channels=4))
        with pytest.raises(WorkloadSpecError,
                           match=r"dims.in_channels.*expects 4 input channels"):
            _spec([bad])

    def test_linear_feature_mismatch(self):
        with pytest.raises(WorkloadSpecError, match="expects 9 input features"):
            _spec([{"name": "fc", "op": "linear",
                    "dims": {"in_features": 9, "out_features": 2}}],
                  input_shape=(8,))

    def test_linear_rejects_feature_map(self):
        with pytest.raises(WorkloadSpecError, match="flatten"):
            _spec([{"name": "fc", "op": "linear",
                    "dims": {"in_features": 192, "out_features": 2}}])

    def test_residual_unsaved_tag(self):
        with pytest.raises(WorkloadSpecError,
                           match=r"dims.from.*unsaved tag 'skip'"):
            _spec([_CONV, {"name": "add", "op": "residual",
                           "dims": {"from": "skip"}}])

    def test_residual_shape_mismatch(self):
        down = {"name": "c2", "op": "conv",
                "dims": {"in_channels": 8, "out_channels": 8, "kernel_size": 3,
                         "stride": 2, "padding": 1}}
        with pytest.raises(WorkloadSpecError, match="adds tag 'skip' of shape"):
            _spec([dict(_CONV, save_as="skip"), down,
                   {"name": "add", "op": "residual", "dims": {"from": "skip"}}])

    def test_input_from_unsaved_tag(self):
        with pytest.raises(WorkloadSpecError,
                           match=r"input_from.*unsaved tag 'trunk'"):
            _spec([_CONV, dict(_CONV, name="c2", input_from="trunk",
                               dims=dict(_CONV["dims"], in_channels=8))])

    def test_duplicate_layer_name(self):
        second = dict(_CONV, dims=dict(_CONV["dims"], in_channels=8))
        with pytest.raises(WorkloadSpecError, match="duplicate layer name 'c1'"):
            _spec([_CONV, second])

    def test_reserved_input_tag(self):
        with pytest.raises(WorkloadSpecError, match="reserved tag"):
            _spec([dict(_CONV, save_as="input")])

    def test_attention_heads_must_divide(self):
        with pytest.raises(WorkloadSpecError,
                           match=r"num_heads 3 must divide embed_dim 32"):
            _spec([{"name": "attn", "op": "attention",
                    "dims": {"embed_dim": 32, "num_heads": 3}}],
                  input_shape=(16, 32))

    def test_error_carries_field_path(self):
        with pytest.raises(WorkloadSpecError) as info:
            _spec([{"name": "x", "op": "deconv"}])
        assert info.value.field == "layers[0].op"
        assert "layers[0].op" in str(info.value)


class TestSerialization:
    def test_unknown_layer_field(self):
        with pytest.raises(WorkloadSpecError, match="unknown layer fields"):
            WorkloadSpec.from_dict({"name": "t", "input_shape": [8],
                                    "layers": [{"name": "fc", "op": "linear",
                                                "units": 4}]})

    def test_unknown_spec_field(self):
        with pytest.raises(WorkloadSpecError, match="unknown workload fields"):
            WorkloadSpec.from_dict({"name": "t", "input_shape": [8],
                                    "layers": [], "optimizer": "sgd"})

    def test_missing_required_spec_field(self):
        with pytest.raises(WorkloadSpecError, match="input_shape"):
            WorkloadSpec.from_dict({"name": "t", "layers": []})

    def test_bad_json(self):
        with pytest.raises(WorkloadSpecError, match="not valid JSON"):
            WorkloadSpec.from_json("{not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadSpecError, match="does not exist"):
            WorkloadSpec.from_file(tmp_path / "nope.json")

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_builtin_round_trip(self, name):
        spec = BUILTIN_SPECS[name]()
        again = WorkloadSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_dict() == spec.to_dict()
        assert spec.macs() > 0 and spec.num_weights() > 0

    def test_save_load(self, tmp_path):
        spec = BUILTIN_SPECS["transformer_block"]()
        path = tmp_path / "tb.json"
        spec.save(path)
        assert WorkloadSpec.from_file(path) == spec


_OPTIONAL_TEXT = st.one_of(st.none(), st.text(min_size=1, max_size=6))
_MAPPING = st.dictionaries(st.sampled_from(["dataflow", "tile"]),
                           st.one_of(st.integers(1, 64),
                                     st.sampled_from(["ws", "ews"])),
                           max_size=2)


@st.composite
def _conv_linear_specs(draw):
    """Valid chains of conv layers, then flatten + linear layers (or a pure
    linear stack), with every optional layer field drawn."""
    layers = []

    def node(name, op, dims, **extra):
        layer = {"name": name, "op": op, "dims": dims,
                 "bias": draw(st.booleans())}
        if draw(st.booleans()):
            layer["precision"] = draw(st.integers(1, 16))
        mapping = draw(_MAPPING)
        if mapping:
            layer["mapping"] = mapping
        layer.update({k: v for k, v in extra.items() if v is not None})
        layers.append(layer)

    if draw(st.booleans()):
        channels = draw(st.integers(1, 6))
        h, w = draw(st.integers(3, 10)), draw(st.integers(3, 10))
        input_shape = (channels, h, w)
        for i in range(draw(st.integers(1, 3))):
            stride = draw(st.integers(1, 2))
            padding = draw(st.one_of(st.none(), st.integers(0, 2)))
            fits = min(h, w) + 2 * (1 if padding is None else padding) >= 3
            k = draw(st.sampled_from([1, 3] if fits else [1]))
            cout = draw(st.integers(1, 8))
            dims = {"in_channels": channels, "out_channels": cout,
                    "kernel_size": k}
            if stride != 1:
                dims["stride"] = stride
            if padding is not None:
                dims["padding"] = padding
            pad = k // 2 if padding is None else padding
            h = (h + 2 * pad - k) // stride + 1
            w = (w + 2 * pad - k) // stride + 1
            node(f"conv{i}", "conv", dims,
                 norm=draw(st.sampled_from([None, "batch"])),
                 act=draw(st.sampled_from([None, "relu", "relu6"])),
                 save_as=draw(st.sampled_from([None, f"t{i}"])))
            channels = cout
        layers.append({"name": "flat", "op": "flatten"})
        features = channels * h * w
    else:
        features = draw(st.integers(1, 32))
        input_shape = (features,)
    for i in range(draw(st.integers(0 if layers else 1, 2))):
        out = draw(st.integers(1, 16))
        node(f"fc{i}", "linear", {"in_features": features,
                                  "out_features": out},
             act=draw(st.sampled_from([None, "relu"])))
        features = out
    description = draw(st.text(max_size=12))
    meta = draw(st.dictionaries(st.text(min_size=1, max_size=4),
                                st.one_of(st.integers(), _OPTIONAL_TEXT),
                                max_size=2))
    return WorkloadSpec(name=draw(st.text(min_size=1, max_size=8)),
                        input_shape=input_shape, layers=layers,
                        description=description, meta=meta)


class TestJsonRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=_conv_linear_specs())
    def test_generated_spec_survives_json(self, spec):
        again = WorkloadSpec.from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        assert again == spec


class TestLowering:
    def test_attention_lowers_to_four_gemms(self):
        spec = BUILTIN_SPECS["transformer_block"]()
        names = [s.name for s in spec.layer_shapes()]
        attn = [n for n in names if n.startswith("attn.")]
        assert attn == ["attn.q", "attn.k", "attn.v", "attn.out"]
        # 64 tokens map onto an 8x8 grid: per-GEMM macs = E*E*64
        q = next(s for s in spec.layer_shapes() if s.name == "attn.q")
        assert q.input_size == 8 and q.macs == 32 * 32 * 64

    def test_non_square_sequence_is_rejected_with_suggestion(self):
        spec = WorkloadSpec(name="t", input_shape=(60, 32), layers=[
            {"name": "attn", "op": "attention",
             "dims": {"embed_dim": 32, "num_heads": 4}}])
        with pytest.raises(WorkloadSpecError, match="49 or 64"):
            spec.layer_shapes()

    def test_parameter_free_ops_do_not_appear(self):
        spec = BUILTIN_SPECS["transformer_block"]()
        for shape in spec.layer_shapes():
            assert shape.num_weights > 0
