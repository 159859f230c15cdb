"""Full-size layer shape tables of the CNNs evaluated in the paper.

The accelerator experiments (Figs. 14-20, Tables 7/9) depend only on layer
*shapes* — channel counts, kernel sizes and feature-map sizes at ImageNet
resolution — not on trained weights, so we keep the original full-size
networks here even though the algorithm experiments train scaled-down
models.  Linear (fully connected) layers are included as 1x1 convolutions
over a 1x1 feature map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class LayerShape:
    """Shape of one convolution layer as seen by the accelerator."""

    name: str
    in_channels: int
    out_channels: int
    kernel_size: int
    input_size: int           # spatial size of the input feature map (H = W)
    stride: int = 1
    padding: int = 0
    depthwise: bool = False

    @property
    def output_size(self) -> int:
        return (self.input_size + 2 * self.padding - self.kernel_size) // self.stride + 1

    @property
    def num_weights(self) -> int:
        if self.depthwise:
            return self.out_channels * self.kernel_size**2
        return self.out_channels * self.in_channels * self.kernel_size**2

    @property
    def macs(self) -> int:
        per_output = self.kernel_size**2 * (1 if self.depthwise else self.in_channels)
        return per_output * self.out_channels * self.output_size**2

    @property
    def flops(self) -> int:
        return 2 * self.macs

    @property
    def input_elements(self) -> int:
        return self.in_channels * self.input_size**2

    @property
    def output_elements(self) -> int:
        return self.out_channels * self.output_size**2


def _conv(name, cin, cout, k, size, stride=1, pad=None, depthwise=False) -> LayerShape:
    if pad is None:
        pad = k // 2
    return LayerShape(name, cin, cout, k, size, stride, pad, depthwise)


def _fc(name, cin, cout) -> LayerShape:
    return LayerShape(name, cin, cout, 1, 1, 1, 0, False)


def resnet18_layers() -> List[LayerShape]:
    """ResNet-18 at 224x224 ImageNet resolution."""
    layers = [_conv("conv1", 3, 64, 7, 224, stride=2, pad=3)]
    stage_spec = [(64, 64, 56, 2), (64, 128, 28, 2), (128, 256, 14, 2), (256, 512, 7, 2)]
    for stage_idx, (cin, cout, out_size, blocks) in enumerate(stage_spec):
        in_size = out_size if stage_idx == 0 else out_size * 2
        for b in range(blocks):
            stride = 2 if (stage_idx > 0 and b == 0) else 1
            block_in = cin if b == 0 else cout
            size = in_size if b == 0 else out_size
            layers.append(_conv(f"layer{stage_idx+1}.{b}.conv1", block_in, cout, 3, size, stride=stride))
            layers.append(_conv(f"layer{stage_idx+1}.{b}.conv2", cout, cout, 3, out_size))
            if stride != 1 or block_in != cout:
                layers.append(_conv(f"layer{stage_idx+1}.{b}.downsample", block_in, cout, 1, size,
                                    stride=stride, pad=0))
    layers.append(_fc("fc", 512, 1000))
    return layers


def resnet50_layers() -> List[LayerShape]:
    """ResNet-50 at 224x224 (bottleneck blocks, expansion 4)."""
    layers = [_conv("conv1", 3, 64, 7, 224, stride=2, pad=3)]
    stage_spec = [(64, 64, 56, 3), (256, 128, 28, 4), (512, 256, 14, 6), (1024, 512, 7, 3)]
    for stage_idx, (cin, planes, out_size, blocks) in enumerate(stage_spec):
        expansion = 4
        in_size = out_size if stage_idx == 0 else out_size * 2
        for b in range(blocks):
            stride = 2 if (stage_idx > 0 and b == 0) else 1
            block_in = cin if b == 0 else planes * expansion
            size = in_size if b == 0 else out_size
            prefix = f"layer{stage_idx+1}.{b}"
            layers.append(_conv(f"{prefix}.conv1", block_in, planes, 1, size, pad=0))
            layers.append(_conv(f"{prefix}.conv2", planes, planes, 3, size, stride=stride))
            layers.append(_conv(f"{prefix}.conv3", planes, planes * expansion, 1, out_size, pad=0))
            if stride != 1 or block_in != planes * expansion:
                layers.append(_conv(f"{prefix}.downsample", block_in, planes * expansion, 1, size,
                                    stride=stride, pad=0))
    layers.append(_fc("fc", 2048, 1000))
    return layers


def vgg16_layers() -> List[LayerShape]:
    """VGG-16 at 224x224."""
    config = [
        (3, 64, 224), (64, 64, 224),
        (64, 128, 112), (128, 128, 112),
        (128, 256, 56), (256, 256, 56), (256, 256, 56),
        (256, 512, 28), (512, 512, 28), (512, 512, 28),
        (512, 512, 14), (512, 512, 14), (512, 512, 14),
    ]
    layers = [_conv(f"conv{i+1}", cin, cout, 3, size) for i, (cin, cout, size) in enumerate(config)]
    layers.append(_fc("fc1", 512 * 7 * 7, 4096))
    layers.append(_fc("fc2", 4096, 4096))
    layers.append(_fc("fc3", 4096, 1000))
    return layers


def alexnet_layers() -> List[LayerShape]:
    """AlexNet at 224x224 (torchvision variant)."""
    layers = [
        _conv("conv1", 3, 64, 11, 224, stride=4, pad=2),
        _conv("conv2", 64, 192, 5, 27, pad=2),
        _conv("conv3", 192, 384, 3, 13),
        _conv("conv4", 384, 256, 3, 13),
        _conv("conv5", 256, 256, 3, 13),
        _fc("fc1", 256 * 6 * 6, 4096),
        _fc("fc2", 4096, 4096),
        _fc("fc3", 4096, 1000),
    ]
    return layers


def mobilenet_v1_layers() -> List[LayerShape]:
    """MobileNet-V1 (1.0x) at 224x224: depthwise + pointwise pairs."""
    layers = [_conv("conv1", 3, 32, 3, 224, stride=2)]
    # (in_ch, out_ch, stride, input_size) of each depthwise-separable block
    blocks = [
        (32, 64, 1, 112), (64, 128, 2, 112), (128, 128, 1, 56), (128, 256, 2, 56),
        (256, 256, 1, 28), (256, 512, 2, 28),
        (512, 512, 1, 14), (512, 512, 1, 14), (512, 512, 1, 14),
        (512, 512, 1, 14), (512, 512, 1, 14),
        (512, 1024, 2, 14), (1024, 1024, 1, 7),
    ]
    for i, (cin, cout, stride, size) in enumerate(blocks):
        layers.append(_conv(f"block{i}.dw", cin, cin, 3, size, stride=stride, depthwise=True))
        out_size = (size + 2 - 3) // stride + 1
        layers.append(_conv(f"block{i}.pw", cin, cout, 1, out_size, pad=0))
    layers.append(_fc("fc", 1024, 1000))
    return layers


def mobilenet_v2_layers() -> List[LayerShape]:
    """MobileNet-V2 at 224x224 (inverted residual blocks)."""
    layers = [_conv("conv1", 3, 32, 3, 224, stride=2)]
    # (expansion, out_ch, repeats, stride) as in the MobileNet-V2 paper
    spec = [(1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
            (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1)]
    cin = 32
    size = 112
    idx = 0
    for expansion, cout, repeats, first_stride in spec:
        for r in range(repeats):
            stride = first_stride if r == 0 else 1
            hidden = cin * expansion
            if expansion != 1:
                layers.append(_conv(f"block{idx}.expand", cin, hidden, 1, size, pad=0))
            layers.append(_conv(f"block{idx}.dw", hidden, hidden, 3, size, stride=stride, depthwise=True))
            out_size = (size + 2 - 3) // stride + 1
            layers.append(_conv(f"block{idx}.project", hidden, cout, 1, out_size, pad=0))
            cin = cout
            size = out_size
            idx += 1
    layers.append(_conv("conv_last", 320, 1280, 1, 7, pad=0))
    layers.append(_fc("fc", 1280, 1000))
    return layers


WORKLOADS: Dict[str, Callable[[], List[LayerShape]]] = {
    "resnet18": resnet18_layers,
    "resnet50": resnet50_layers,
    "vgg16": vgg16_layers,
    "alexnet": alexnet_layers,
    "mobilenet_v1": mobilenet_v1_layers,
    "mobilenet_v2": mobilenet_v2_layers,
}


def network_macs(layers: List[LayerShape]) -> int:
    return sum(layer.macs for layer in layers)


def network_weights(layers: List[LayerShape]) -> int:
    return sum(layer.num_weights for layer in layers)
