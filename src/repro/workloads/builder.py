"""Executable models built straight from a :class:`WorkloadSpec`.

:class:`SpecModel` is the ``build_model()`` factory target: it interprets a
validated spec as a flat list of :mod:`repro.nn` layers plus a small step
program (run / save / load / residual) that realises the spec's dataflow
tags.  The result is an ordinary :class:`~repro.nn.module.Module` — it
trains with the trainer, compresses with the MVQ compressor
(``include_linear=True`` reaches the attention projections), and serves
through the dense/LUT engines with no model-specific Python anywhere.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import nn
from repro.nn.module import Module
from repro.workloads.schema import INPUT_TAG, ResolvedLayer, WorkloadSpec

_ACTIVATIONS = {"relu": nn.ReLU, "relu6": nn.ReLU6}

#: one instruction of the dataflow program: (opcode, operand)
Step = Tuple[str, Union[int, str]]


def _modules_for(rl: ResolvedLayer, rng: np.random.Generator) -> List[Module]:
    """The nn layer stack one resolved schema node expands to."""
    node, d = rl.node, rl.dims
    stack: List[Module] = []
    if node.op == "conv":
        stack.append(nn.Conv2d(d["in_channels"], d["out_channels"],
                               d["kernel_size"], stride=d["stride"],
                               padding=d["padding"], bias=node.bias, rng=rng))
    elif node.op == "depthwise":
        c = d["channels"]
        stack.append(nn.Conv2d(c, c, d["kernel_size"], stride=d["stride"],
                               padding=d["padding"], bias=node.bias,
                               groups=c, rng=rng))
    elif node.op == "linear":
        stack.append(nn.Linear(d["in_features"], d["out_features"],
                               bias=node.bias, rng=rng))
    elif node.op == "attention":
        stack.append(nn.MultiHeadAttention(d["embed_dim"], d["num_heads"],
                                           bias=node.bias, rng=rng))
    elif node.op == "norm":
        stack.append(nn.LayerNorm(d["features"]))
    elif node.op == "act":
        stack.append(_ACTIVATIONS[d["kind"]]())
    elif node.op == "pool":
        kind = d["kind"]
        if kind == "max":
            stack.append(nn.MaxPool2d(d["kernel_size"], stride=d["stride"]))
        elif kind == "avg":
            stack.append(nn.AvgPool2d(d["kernel_size"], stride=d["stride"]))
        elif kind == "global_avg":
            stack.append(nn.GlobalAvgPool2d())
        else:  # seq_mean
            stack.append(nn.SequenceMean())
    elif node.op == "flatten":
        stack.append(nn.Flatten())
    elif node.op == "upsample":
        stack.append(nn.Upsample2d(d["scale"]))
    # residual expands to a step, not a module
    if node.norm == "batch":
        stack.append(nn.BatchNorm2d(d["out_channels"]))
    if node.act is not None:
        stack.append(_ACTIVATIONS[node.act]())
    return stack


class SpecModel(Module):
    """A :class:`WorkloadSpec` interpreted as an executable module.

    The spec's layers expand into ``self.blocks`` (so parameter discovery,
    ``state_dict`` and the compressor's ``named_modules`` walk see ordinary
    ``blocks.<i>`` children) and ``self.steps``, a tiny program over the
    activation chain and a tag store:

    * ``("run", i)`` — apply ``blocks[i]`` to the chain activation
    * ``("save", tag)`` — store the chain activation under ``tag``
    * ``("load", tag)`` — replace the chain activation with ``tag``'s value
    * ``("residual", tag)`` — add ``tag``'s value onto the chain activation

    The backward pass runs the program in reverse, accumulating pending
    gradients per tag, so skip connections and branches declared in JSON
    backpropagate exactly like the hand-written residual blocks in the zoo.
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0):
        super().__init__()
        self.spec = spec
        self.blocks: List[Module] = []
        #: spec layer name each block belongs to (parallel to ``blocks``)
        self.block_sources: List[str] = []
        self.steps: List[Step] = []
        rng = np.random.default_rng(seed)
        for rl in spec.resolved_layers():
            node = rl.node
            if node.input_from is not None:
                self.steps.append(("load", node.input_from))
            if node.op == "residual":
                self.steps.append(("residual", rl.dims["from"]))
            for module in _modules_for(rl, rng):
                self.steps.append(("run", len(self.blocks)))
                self.blocks.append(module)
                self.block_sources.append(node.name)
            if node.save_as is not None:
                self.steps.append(("save", node.save_as))
        self._out_shapes: Dict[int, Tuple[int, ...]] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        saved: Dict[str, np.ndarray] = {INPUT_TAG: x}
        for step_idx, (opcode, operand) in enumerate(self.steps):
            if opcode == "run":
                x = self.blocks[operand].forward(x)
                self._out_shapes[step_idx] = x.shape
            elif opcode == "save":
                saved[operand] = x
            elif opcode == "load":
                x = saved[operand]
            else:  # residual
                x = x + saved[operand]
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad: Union[np.ndarray, float] = grad_out
        pending: Dict[str, Union[np.ndarray, float]] = {}
        for step_idx in reversed(range(len(self.steps))):
            opcode, operand = self.steps[step_idx]
            if opcode == "run":
                if np.ndim(grad) == 0:
                    # the chain value was consumed only through tags; its
                    # direct downstream contribution is zero
                    grad = np.zeros(self._out_shapes[step_idx],
                                    dtype=np.asarray(grad_out).dtype)
                grad = self.blocks[operand].backward(grad)
            elif opcode == "save":
                grad = grad + pending.pop(operand, 0.0)
            elif opcode == "load":
                pending[operand] = pending.get(operand, 0.0) + grad
                grad = 0.0
            else:  # residual: identity on the chain, plus a branch to the tag
                pending[operand] = pending.get(operand, 0.0) + grad
        return grad + pending.pop(INPUT_TAG, 0.0)

    def named_layer_blocks(self):
        """``(spec_layer_name, module)`` pairs in execution order."""
        return list(zip(self.block_sources, self.blocks))

    def __repr__(self) -> str:
        return (f"SpecModel({self.spec.name!r}, layers={len(self.spec.layers)}, "
                f"blocks={len(self.blocks)})")
