"""Declarative workload schema: validated per-layer dicts, zigzag style.

A :class:`WorkloadSpec` is a JSON-loadable description of one network as an
ordered list of :class:`LayerNode` dicts — op type (conv / depthwise /
linear / attention / norm / act / pool / flatten / upsample / residual),
op-specific dims, optional precision and mapping hints, and explicit
dataflow tags (``save_as`` / ``input_from`` / residual ``from``) that
express skip connections and branches without any per-model Python.

One spec drives *both* halves of the system:

* :meth:`WorkloadSpec.build_model` — an executable :mod:`repro.nn` module
  (see :mod:`repro.workloads.builder`) that trains, compresses and serves
  through the dense/LUT engines like any hand-written zoo model;
* :meth:`WorkloadSpec.layer_shapes` — the accelerator's
  :class:`~repro.accelerator.workloads.LayerShape` table, with attention
  lowered to its four constituent weight GEMMs (q/k/v/out projections).

Validation walks the activation-shape chain eagerly at construction time
and raises :class:`WorkloadSpecError` naming the offending field
(``layers[3].dims.in_channels``), so a bad spec fails at load time with a
diagnosable message instead of a shape error deep inside a forward pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.accelerator.workloads import LayerShape

#: ops that carry weights (and therefore lower to accelerator LayerShapes)
WEIGHT_OPS: Tuple[str, ...] = ("conv", "depthwise", "linear", "attention")

#: every op type the schema accepts
OP_TYPES: Tuple[str, ...] = WEIGHT_OPS + (
    "norm", "act", "pool", "flatten", "upsample", "residual")

#: dims keys each op accepts: {key: required}
_OP_DIMS: Dict[str, Dict[str, bool]] = {
    "conv": {"in_channels": True, "out_channels": True, "kernel_size": True,
             "stride": False, "padding": False},
    "depthwise": {"channels": True, "kernel_size": True,
                  "stride": False, "padding": False},
    "linear": {"in_features": True, "out_features": True},
    "attention": {"embed_dim": True, "num_heads": True},
    "norm": {"features": False},
    "act": {"kind": False},
    "pool": {"kind": True, "kernel_size": False, "stride": False},
    "flatten": {},
    "upsample": {"scale": True},
    "residual": {"from": True},
}

_ACT_KINDS = ("relu", "relu6")
_POOL_KINDS = ("max", "avg", "global_avg", "seq_mean")
_NORM_KINDS = ("batch",)

#: the reserved dataflow tag naming the model input
INPUT_TAG = "input"


class WorkloadSpecError(ValueError):
    """Schema validation failure, naming the field that is wrong.

    ``field`` is the dotted path into the spec dict (e.g.
    ``layers[2].dims.kernel_size``); the message always embeds it so CLI
    users see exactly which entry of their JSON to fix.
    """

    def __init__(self, message: str, field: Optional[str] = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


@dataclass(frozen=True)
class LayerNode:
    """One validated layer dict of a workload spec."""

    name: str
    op: str
    dims: Mapping[str, Any] = field(default_factory=dict)
    #: bias on weight ops (conv / linear / attention projections)
    bias: bool = True
    #: normalisation attached after a conv/depthwise op ("batch" or None)
    norm: Optional[str] = None
    #: activation attached after a weight op ("relu" / "relu6" or None)
    act: Optional[str] = None
    #: read this node's input from a saved tag instead of the chain
    input_from: Optional[str] = None
    #: tag this node's output for later residual/branch consumers
    save_as: Optional[str] = None
    #: weight-precision hint in bits (metadata for the accelerator models)
    precision: Optional[int] = None
    #: free-form mapping hints (dataflow, tiling, ...) carried to consumers
    mapping: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        # normalise mappings to plain dicts so == and JSON round-trips hold
        object.__setattr__(self, "dims", dict(self.dims))
        object.__setattr__(self, "mapping", dict(self.mapping))

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "op": self.op}
        if self.dims:
            data["dims"] = dict(self.dims)
        if not self.bias:
            data["bias"] = False
        for key in ("norm", "act", "input_from", "save_as", "precision"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.mapping:
            data["mapping"] = dict(self.mapping)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str = "layer") -> "LayerNode":
        if not isinstance(data, Mapping):
            raise WorkloadSpecError(
                f"expected a layer dict, got {type(data).__name__}", where)
        data = dict(data)
        known = {"name", "op", "dims", "bias", "norm", "act", "input_from",
                 "save_as", "precision", "mapping"}
        unknown = set(data) - known
        if unknown:
            raise WorkloadSpecError(
                f"unknown layer fields {sorted(unknown)}; expected a subset "
                f"of {sorted(known)}", where)
        for required in ("name", "op"):
            if required not in data:
                raise WorkloadSpecError("field is required", f"{where}.{required}")
        return cls(**data)


def _positive_int(value: Any, field_name: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise WorkloadSpecError(
            f"must be an integer >= {minimum}, got {value!r}", field_name)
    return value


@dataclass(frozen=True)
class ResolvedLayer:
    """One schema node with defaults filled in and shapes attached."""

    node: LayerNode
    index: int
    in_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]
    #: dims with stride/padding/kind defaults resolved
    dims: Dict[str, Any]


@dataclass(frozen=True)
class WorkloadSpec:
    """A whole network as validated layer dicts; one JSON file, two factories."""

    name: str
    input_shape: Tuple[int, ...]
    layers: Tuple[LayerNode, ...] = ()
    description: str = ""
    #: free-form spec-level metadata (source, resolution, notes, ...)
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(
            node if isinstance(node, LayerNode) else LayerNode.from_dict(node)
            for node in self.layers))
        object.__setattr__(self, "meta", dict(self.meta))
        object.__setattr__(self, "_resolved", self._validate())

    # -- validation ----------------------------------------------------------
    def _validate(self) -> Tuple[ResolvedLayer, ...]:
        if not self.name:
            raise WorkloadSpecError("workload name must be non-empty", "name")
        if len(self.input_shape) not in (1, 2, 3) or any(
                not isinstance(v, int) or v < 1 for v in self.input_shape):
            raise WorkloadSpecError(
                "input_shape must be 1-3 positive ints: (features,), "
                f"(seq, embed) or (channels, h, w); got {self.input_shape}",
                "input_shape")
        if not self.layers:
            raise WorkloadSpecError("a workload needs at least one layer", "layers")

        resolved: List[ResolvedLayer] = []
        tags: Dict[str, Tuple[int, ...]] = {INPUT_TAG: self.input_shape}
        seen_names: Dict[str, int] = {}
        shape = self.input_shape
        for i, node in enumerate(self.layers):
            where = f"layers[{i}]"
            if node.name in seen_names:
                raise WorkloadSpecError(
                    f"duplicate layer name {node.name!r} (also layers"
                    f"[{seen_names[node.name]}])", f"{where}.name")
            seen_names[node.name] = i
            if node.op not in OP_TYPES:
                raise WorkloadSpecError(
                    f"unknown op type {node.op!r}; available: {sorted(OP_TYPES)}",
                    f"{where}.op")
            allowed = _OP_DIMS[node.op]
            unknown = set(node.dims) - set(allowed)
            if unknown:
                raise WorkloadSpecError(
                    f"op {node.op!r} does not accept dims {sorted(unknown)}; "
                    f"allowed: {sorted(allowed)}", f"{where}.dims")
            for key, required in allowed.items():
                if required and key not in node.dims:
                    raise WorkloadSpecError(
                        f"op {node.op!r} requires this dim", f"{where}.dims.{key}")
            if node.input_from is not None:
                if node.input_from not in tags:
                    raise WorkloadSpecError(
                        f"references unsaved tag {node.input_from!r}; tags "
                        f"saved so far: {sorted(tags)}", f"{where}.input_from")
                shape = tags[node.input_from]
            if node.precision is not None:
                _positive_int(node.precision, f"{where}.precision")
            out_shape, dims = self._apply_op(node, shape, tags, where)
            resolved.append(ResolvedLayer(node, i, shape, out_shape, dims))
            shape = out_shape
            if node.save_as is not None:
                if node.save_as == INPUT_TAG:
                    raise WorkloadSpecError(
                        f"{INPUT_TAG!r} is the reserved tag for the model "
                        "input", f"{where}.save_as")
                tags[node.save_as] = shape
        return tuple(resolved)

    def _apply_op(self, node: LayerNode, shape: Tuple[int, ...],
                  tags: Dict[str, Tuple[int, ...]], where: str
                  ) -> Tuple[Tuple[int, ...], Dict[str, Any]]:
        """Shape transition + resolved dims of one node; raises on mismatch."""
        op, d = node.op, dict(node.dims)
        if node.norm is not None and node.norm not in _NORM_KINDS:
            raise WorkloadSpecError(
                f"unknown norm {node.norm!r}; available: {sorted(_NORM_KINDS)}",
                f"{where}.norm")
        if node.norm is not None and op not in ("conv", "depthwise"):
            raise WorkloadSpecError(
                f"norm attaches to conv/depthwise ops, not {op!r}", f"{where}.norm")
        if node.act is not None and node.act not in _ACT_KINDS:
            raise WorkloadSpecError(
                f"unknown act {node.act!r}; available: {sorted(_ACT_KINDS)}",
                f"{where}.act")

        if op in ("conv", "depthwise"):
            if len(shape) != 3:
                raise WorkloadSpecError(
                    f"{op} needs (channels, h, w) input, has {shape}", where)
            c, h, w = shape
            k = _positive_int(d["kernel_size"], f"{where}.dims.kernel_size")
            stride = _positive_int(d.get("stride", 1), f"{where}.dims.stride")
            padding = d.get("padding", k // 2)
            if not isinstance(padding, int) or padding < 0:
                raise WorkloadSpecError(
                    f"must be an integer >= 0, got {padding!r}",
                    f"{where}.dims.padding")
            if op == "conv":
                cin = _positive_int(d["in_channels"], f"{where}.dims.in_channels")
                cout = _positive_int(d["out_channels"], f"{where}.dims.out_channels")
            else:
                cin = cout = _positive_int(d["channels"], f"{where}.dims.channels")
            if cin != c:
                raise WorkloadSpecError(
                    f"expects {cin} input channels but the incoming "
                    f"activation has {c}", f"{where}.dims."
                    f"{'in_channels' if op == 'conv' else 'channels'}")
            oh = (h + 2 * padding - k) // stride + 1
            ow = (w + 2 * padding - k) // stride + 1
            if oh < 1 or ow < 1:
                raise WorkloadSpecError(
                    f"kernel {k} (stride {stride}, padding {padding}) does "
                    f"not fit the {h}x{w} input", f"{where}.dims.kernel_size")
            return (cout, oh, ow), {**d, "stride": stride, "padding": padding,
                                    "in_channels": cin, "out_channels": cout}

        if op == "linear":
            if len(shape) == 3:
                raise WorkloadSpecError(
                    "linear needs (features,) or (seq, embed) input — flatten "
                    f"or pool the {shape} feature map first", where)
            fin = _positive_int(d["in_features"], f"{where}.dims.in_features")
            fout = _positive_int(d["out_features"], f"{where}.dims.out_features")
            if fin != shape[-1]:
                raise WorkloadSpecError(
                    f"expects {fin} input features but the incoming "
                    f"activation has {shape[-1]}", f"{where}.dims.in_features")
            return (*shape[:-1], fout), d

        if op == "attention":
            if len(shape) != 2:
                raise WorkloadSpecError(
                    f"attention needs (seq, embed) input, has {shape}", where)
            s, e = shape
            embed = _positive_int(d["embed_dim"], f"{where}.dims.embed_dim")
            heads = _positive_int(d["num_heads"], f"{where}.dims.num_heads")
            if embed != e:
                raise WorkloadSpecError(
                    f"embed_dim {embed} does not match the incoming embedding "
                    f"width {e}", f"{where}.dims.embed_dim")
            if embed % heads != 0:
                raise WorkloadSpecError(
                    f"num_heads {heads} must divide embed_dim {embed}",
                    f"{where}.dims.num_heads")
            return shape, d

        if op == "norm":
            if len(shape) == 3:
                raise WorkloadSpecError(
                    "norm (LayerNorm) runs over (seq, embed) or (features,) "
                    "activations; attach 'norm': 'batch' to a conv for "
                    "feature maps", where)
            features = d.get("features", shape[-1])
            _positive_int(features, f"{where}.dims.features")
            if features != shape[-1]:
                raise WorkloadSpecError(
                    f"normalises {features} features but the incoming "
                    f"activation has {shape[-1]}", f"{where}.dims.features")
            return shape, {**d, "features": features}

        if op == "act":
            kind = d.get("kind", "relu")
            if kind not in _ACT_KINDS:
                raise WorkloadSpecError(
                    f"unknown act kind {kind!r}; available: "
                    f"{sorted(_ACT_KINDS)}", f"{where}.dims.kind")
            return shape, {**d, "kind": kind}

        if op == "pool":
            kind = d["kind"]
            if kind not in _POOL_KINDS:
                raise WorkloadSpecError(
                    f"unknown pool kind {kind!r}; available: "
                    f"{sorted(_POOL_KINDS)}", f"{where}.dims.kind")
            if kind == "seq_mean":
                if len(shape) != 2:
                    raise WorkloadSpecError(
                        f"seq_mean pools (seq, embed) input, has {shape}", where)
                return (shape[1],), {**d, "kind": kind}
            if len(shape) != 3:
                raise WorkloadSpecError(
                    f"{kind} pooling needs (channels, h, w) input, has "
                    f"{shape}", where)
            c, h, w = shape
            if kind == "global_avg":
                return (c,), {**d, "kind": kind}
            k = _positive_int(d.get("kernel_size", 2), f"{where}.dims.kernel_size")
            stride = _positive_int(d.get("stride", k), f"{where}.dims.stride")
            oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
            if oh < 1 or ow < 1:
                raise WorkloadSpecError(
                    f"window {k} (stride {stride}) does not fit the {h}x{w} "
                    f"input", f"{where}.dims.kernel_size")
            return (c, oh, ow), {**d, "kind": kind, "kernel_size": k,
                                 "stride": stride}

        if op == "flatten":
            return (int(math.prod(shape)),), d

        if op == "upsample":
            if len(shape) != 3:
                raise WorkloadSpecError(
                    f"upsample needs (channels, h, w) input, has {shape}", where)
            scale = _positive_int(d["scale"], f"{where}.dims.scale")
            return (shape[0], shape[1] * scale, shape[2] * scale), d

        if op == "residual":
            source = d["from"]
            if source not in tags:
                raise WorkloadSpecError(
                    f"references unsaved tag {source!r}; tags saved so far: "
                    f"{sorted(tags)}", f"{where}.dims.from")
            if tags[source] != shape:
                raise WorkloadSpecError(
                    f"adds tag {source!r} of shape {tags[source]} to an "
                    f"activation of shape {shape}", f"{where}.dims.from")
            return shape, d

        raise WorkloadSpecError(f"unhandled op {op!r}", where)  # pragma: no cover

    # -- derived views -------------------------------------------------------
    def resolved_layers(self) -> Tuple[ResolvedLayer, ...]:
        """Every node with defaults filled in and in/out shapes attached."""
        return self._resolved  # type: ignore[attr-defined]

    def output_shape(self) -> Tuple[int, ...]:
        return self.resolved_layers()[-1].out_shape

    # -- factory 1: the accelerator LayerShape table ---------------------------
    def layer_shapes(self) -> List[LayerShape]:
        """The accelerator workload table this spec describes.

        Convolutions map 1:1; linears become 1x1 convolutions (per-token for
        sequence inputs); attention lowers to its four weight GEMMs
        (``<name>.q/.k/.v/.out``).  Parameter-free ops (norm, act, pool,
        flatten, upsample, residual) do not appear, exactly as the
        hand-written tables omit BatchNorm and pooling.
        """
        shapes: List[LayerShape] = []
        for rl in self.resolved_layers():
            node, d = rl.node, rl.dims
            if node.op == "conv":
                c, h, w = rl.in_shape
                self._require_square(h, w, rl)
                shapes.append(LayerShape(node.name, d["in_channels"],
                                         d["out_channels"], d["kernel_size"],
                                         h, d["stride"], d["padding"]))
            elif node.op == "depthwise":
                c, h, w = rl.in_shape
                self._require_square(h, w, rl)
                shapes.append(LayerShape(node.name, c, c, d["kernel_size"], h,
                                         d["stride"], d["padding"],
                                         depthwise=True))
            elif node.op == "linear":
                size = (1 if len(rl.in_shape) == 1
                        else self._token_grid(rl.in_shape[0], rl))
                shapes.append(LayerShape(node.name, d["in_features"],
                                         d["out_features"], 1, size, 1, 0))
            elif node.op == "attention":
                size = self._token_grid(rl.in_shape[0], rl)
                e = d["embed_dim"]
                for proj in ("q", "k", "v", "out"):
                    shapes.append(LayerShape(f"{node.name}.{proj}", e, e, 1,
                                             size, 1, 0))
        return shapes

    def _require_square(self, h: int, w: int, rl: ResolvedLayer) -> None:
        if h != w:
            raise WorkloadSpecError(
                f"accelerator lowering needs square feature maps, layer "
                f"{rl.node.name!r} sees {h}x{w}", f"layers[{rl.index}]")

    def _token_grid(self, seq: int, rl: ResolvedLayer) -> int:
        """Sequence GEMMs map tokens onto the accelerator's square feature
        grid; the token count must therefore be a perfect square."""
        size = math.isqrt(seq)
        if size * size != seq:
            raise WorkloadSpecError(
                f"accelerator lowering maps the {seq} tokens feeding layer "
                f"{rl.node.name!r} onto a square grid; use a perfect-square "
                f"sequence length (e.g. {size * size} or {(size + 1) ** 2})",
                f"layers[{rl.index}]")
        return size

    # -- factory 2: the executable model --------------------------------------
    def build_model(self, seed: int = 0):
        """An executable :mod:`repro.nn` module of this spec (see
        :class:`repro.workloads.builder.SpecModel`)."""
        from repro.workloads.builder import SpecModel

        return SpecModel(self, seed=seed)

    # -- aggregate counts ------------------------------------------------------
    def macs(self) -> int:
        """Per-frame multiply-accumulates of all weight layers."""
        return sum(shape.macs for shape in self.layer_shapes())

    def num_weights(self) -> int:
        """Weight parameters of all weight layers (biases/norms excluded)."""
        return sum(shape.num_weights for shape in self.layer_shapes())

    # -- (de)serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "layers": [node.to_dict() for node in self.layers],
        }
        if self.description:
            data["description"] = self.description
        if self.meta:
            data["meta"] = dict(self.meta)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        if not isinstance(data, Mapping):
            raise WorkloadSpecError(
                f"expected a workload dict, got {type(data).__name__}")
        data = dict(data)
        known = {"name", "input_shape", "layers", "description", "meta"}
        unknown = set(data) - known
        if unknown:
            raise WorkloadSpecError(
                f"unknown workload fields {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}")
        for required in ("name", "input_shape", "layers"):
            if required not in data:
                raise WorkloadSpecError("field is required", required)
        if not isinstance(data["layers"], (list, tuple)):
            raise WorkloadSpecError("must be a list of layer dicts", "layers")
        layers = tuple(
            LayerNode.from_dict(node, where=f"layers[{i}]")
            for i, node in enumerate(data["layers"]))
        return cls(name=data["name"], input_shape=tuple(data["input_shape"]),
                   layers=layers, description=data.get("description", ""),
                   meta=dict(data.get("meta", {})))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise WorkloadSpecError(
                f"workload file is not valid JSON: {error}") from error
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "WorkloadSpec":
        path = Path(path)
        if not path.exists():
            raise WorkloadSpecError(f"workload file {str(path)!r} does not exist")
        return cls.from_json(path.read_text())

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")
