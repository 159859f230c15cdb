"""Built-in declarative workload specs.

Three families, all expressed as plain layer dicts (the exact JSON the
pipeline CLI accepts from a file):

* ``transformer_block`` — a pre-norm transformer encoder block (multi-head
  self-attention + MLP with residuals) over a 64-token / 32-wide sequence.
  Every projection is an ordinary ``linear``/``attention`` node, so MVQ
  compression (``include_linear``) and the dense/LUT serving engines
  apply unchanged, and the accelerator table lowers attention to its four
  weight GEMMs.  The 64-token length is a perfect square by design: the
  accelerator maps sequence GEMMs onto an 8x8 feature grid.
* ``simple_detector`` / ``deeplab_lite`` — schema mirrors of the
  hand-written detection/segmentation minis in :mod:`repro.nn.models`,
  giving those models the accelerator LayerShape tables they never had.
  The cross-validation test asserts the spec tables agree with
  :func:`repro.nn.flops.per_layer_flops` on the *hand-written* models, so
  schema and model cannot drift apart silently.
* ``stress_gemm_tower`` / ``stress_conv_ladder`` — synthetic shapes for the
  perf harness: a pure-GEMM tower and a strided conv ladder.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.workloads.schema import WorkloadSpec


def _conv(name: str, cin: int, cout: int, k: int, stride: int = 1,
          padding: Optional[int] = None, bias: bool = False,
          norm: Optional[str] = "batch", act: Optional[str] = "relu",
          **tags: Any) -> Dict[str, Any]:
    dims: Dict[str, Any] = {"in_channels": cin, "out_channels": cout,
                            "kernel_size": k}
    if stride != 1:
        dims["stride"] = stride
    if padding is not None:
        dims["padding"] = padding
    node: Dict[str, Any] = {"name": name, "op": "conv", "dims": dims,
                            "bias": bias}
    if norm:
        node["norm"] = norm
    if act:
        node["act"] = act
    node.update(tags)
    return node


def _dw(name: str, channels: int, stride: int = 1, act: str = "relu6",
        **tags: Any) -> Dict[str, Any]:
    dims: Dict[str, Any] = {"channels": channels, "kernel_size": 3}
    if stride != 1:
        dims["stride"] = stride
    return {"name": name, "op": "depthwise", "dims": dims, "bias": False,
            "norm": "batch", "act": act, **tags}


def _linear(name: str, fin: int, fout: int, act: Optional[str] = None,
            **tags: Any) -> Dict[str, Any]:
    node: Dict[str, Any] = {"name": name, "op": "linear",
                            "dims": {"in_features": fin, "out_features": fout}}
    if act:
        node["act"] = act
    node.update(tags)
    return node


def _residual(name: str, source: str, act: Optional[str] = None,
              **tags: Any) -> Dict[str, Any]:
    node: Dict[str, Any] = {"name": name, "op": "residual",
                            "dims": {"from": source}}
    if act:
        node["act"] = act
    node.update(tags)
    return node


def _basic_block(prefix: str, cin: int, cout: int, stride: int,
                 block_in: str, save_as: str) -> List[Dict[str, Any]]:
    """A ResNet BasicBlock as schema nodes (identity or projection skip)."""
    layers = [
        _conv(f"{prefix}.conv1", cin, cout, 3, stride=stride),
        _conv(f"{prefix}.conv2", cout, cout, 3, act=None),
    ]
    if stride != 1 or cin != cout:
        layers[-1]["save_as"] = f"{prefix}.main"
        layers.append(_conv(f"{prefix}.downsample", cin, cout, 1,
                            stride=stride, act=None, input_from=block_in))
        layers.append(_residual(f"{prefix}.add", f"{prefix}.main",
                                act="relu", save_as=save_as))
    else:
        layers.append(_residual(f"{prefix}.add", block_in, act="relu",
                                save_as=save_as))
    return layers


def transformer_block_spec(seq_len: int = 64, embed_dim: int = 32,
                           num_heads: int = 4, mlp_ratio: int = 2,
                           num_classes: int = 10) -> WorkloadSpec:
    """Pre-norm transformer encoder block with a mean-pooled classifier."""
    hidden = embed_dim * mlp_ratio
    return WorkloadSpec.from_dict({
        "name": "transformer_block",
        "description": "Pre-norm transformer encoder block (MHA + MLP) over "
                       f"a {seq_len}-token sequence; linear-heavy MVQ target.",
        "input_shape": [seq_len, embed_dim],
        "layers": [
            {"name": "ln1", "op": "norm"},
            {"name": "attn", "op": "attention",
             "dims": {"embed_dim": embed_dim, "num_heads": num_heads}},
            _residual("attn.add", "input", save_as="h1"),
            {"name": "ln2", "op": "norm"},
            _linear("mlp.up", embed_dim, hidden, act="relu"),
            _linear("mlp.down", hidden, embed_dim),
            _residual("mlp.add", "h1"),
            {"name": "pool", "op": "pool", "dims": {"kind": "seq_mean"}},
            _linear("head", embed_dim, num_classes),
        ],
    })


def simple_detector_spec(num_classes: int = 5, width: int = 16,
                         hidden: int = 32, image_size: int = 16) -> WorkloadSpec:
    """Schema mirror of :class:`repro.nn.models.SimpleDetector` (ResNet-18
    mini backbone, shared neck, classification + box heads)."""
    w2 = width * 2
    layers: List[Dict[str, Any]] = [
        _conv("stem", 3, width, 3, save_as="s1b1_in"),
    ]
    layers += _basic_block("s1b1", width, width, 1, "s1b1_in", "s1b2_in")
    layers += _basic_block("s1b2", width, width, 1, "s1b2_in", "s2b1_in")
    layers += _basic_block("s2b1", width, w2, 2, "s2b1_in", "s2b2_in")
    layers += _basic_block("s2b2", w2, w2, 1, "s2b2_in", "feat")
    layers += [
        {"name": "pool", "op": "pool", "dims": {"kind": "global_avg"}},
        _linear("neck", w2, hidden, act="relu", save_as="trunk"),
        _linear("cls_head", hidden, num_classes),
        _linear("box_head", hidden, 4, input_from="trunk"),
    ]
    return WorkloadSpec.from_dict({
        "name": "simple_detector",
        "description": "Single-box detector: ResNet-18 mini backbone with "
                       "shared neck and classification/box heads.",
        "input_shape": [3, image_size, image_size],
        "layers": layers,
    })


def _inverted_residual(prefix: str, cin: int, cout: int, stride: int,
                       expand: int, block_in: Optional[str],
                       save_as: Optional[str]) -> List[Dict[str, Any]]:
    """A MobileNet-V2 inverted-residual block as schema nodes."""
    hidden = cin * expand
    layers: List[Dict[str, Any]] = []
    if expand != 1:
        layers.append(_conv(f"{prefix}.expand", cin, hidden, 1, act="relu6"))
    layers.append(_dw(f"{prefix}.dw", hidden, stride=stride))
    layers.append(_conv(f"{prefix}.project", hidden, cout, 1, act=None))
    if stride == 1 and cin == cout and block_in is not None:
        layers.append(_residual(f"{prefix}.add", block_in))
    if save_as is not None:
        layers[-1]["save_as"] = save_as
    return layers


def deeplab_lite_spec(num_classes: int = 4, width: int = 12,
                      head_channels: int = 32, image_size: int = 16,
                      output_stride: int = 4) -> WorkloadSpec:
    """Schema mirror of :class:`repro.nn.models.DeepLabLite` (MobileNet-V2
    mini backbone, three summed context branches, 1x1 classifier,
    nearest upsample)."""
    feat = width * 8   # head doubles the last block's width * 4
    layers: List[Dict[str, Any]] = [
        _conv("stem", 3, width, 3, act="relu6", save_as="b1_in"),
    ]
    layers += _inverted_residual("b1", width, width, 1, 1, "b1_in", None)
    layers += _inverted_residual("b2", width, width * 2, 2, 4, None, "b3_in")
    layers += _inverted_residual("b3", width * 2, width * 2, 1, 4, "b3_in", None)
    layers += _inverted_residual("b4", width * 2, width * 4, 2, 4, None, None)
    layers += [
        _conv("head", width * 4, feat, 1, act="relu6", save_as="feat"),
        _conv("branch1", feat, head_channels, 1, save_as="br1"),
        _conv("branch2", feat, head_channels, 3, input_from="feat",
              save_as="br2"),
        _conv("branch3.a", feat, head_channels, 3, input_from="feat"),
        _conv("branch3.b", head_channels, head_channels, 3),
        _residual("fuse.b1", "br1"),
        _residual("fuse.b2", "br2"),
        _conv("classifier", head_channels, num_classes, 1, bias=True,
              norm=None, act=None),
        {"name": "up", "op": "upsample", "dims": {"scale": output_stride}},
    ]
    return WorkloadSpec.from_dict({
        "name": "deeplab_lite",
        "description": "DeepLab-lite segmenter: MobileNet-V2 mini backbone, "
                       "multi-branch context module, 1x1 classifier.",
        "input_shape": [3, image_size, image_size],
        "layers": layers,
    })


def stress_gemm_tower_spec(features: int = 256, depth: int = 3,
                           num_classes: int = 10) -> WorkloadSpec:
    """Pure-GEMM stress shape: a tower of wide square linears."""
    layers = [_linear(f"fc{i + 1}", features, features, act="relu")
              for i in range(depth)]
    layers.append(_linear("head", features, num_classes))
    return WorkloadSpec.from_dict({
        "name": "stress_gemm_tower",
        "description": f"Synthetic stress workload: {depth} square "
                       f"{features}x{features} GEMMs plus a head.",
        "input_shape": [features],
        "layers": layers,
    })


def stress_conv_ladder_spec(channels: int = 8, image_size: int = 32,
                            rungs: int = 3, num_classes: int = 10) -> WorkloadSpec:
    """Conv stress shape: a strided ladder that doubles channels per rung."""
    layers: List[Dict[str, Any]] = []
    cin = channels
    for i in range(rungs):
        layers.append(_conv(f"rung{i + 1}", cin, cin * 2, 3, stride=2))
        cin *= 2
    layers += [
        {"name": "pool", "op": "pool", "dims": {"kind": "global_avg"}},
        _linear("head", cin, num_classes),
    ]
    return WorkloadSpec.from_dict({
        "name": "stress_conv_ladder",
        "description": f"Synthetic stress workload: {rungs} stride-2 convs "
                       "doubling channels per rung.",
        "input_shape": [channels, image_size, image_size],
        "layers": layers,
    })


#: name -> zero-argument spec factory for every built-in spec
BUILTIN_SPECS = {
    "transformer_block": transformer_block_spec,
    "simple_detector": simple_detector_spec,
    "deeplab_lite": deeplab_lite_spec,
    "stress_gemm_tower": stress_gemm_tower_spec,
    "stress_conv_ladder": stress_conv_ladder_spec,
}
