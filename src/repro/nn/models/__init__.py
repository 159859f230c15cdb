"""Model zoo mirroring the architectures evaluated in the MVQ paper.

Every model is a scaled-down but structurally faithful variant (residual
blocks, depthwise-separable blocks, inverted residuals, plain conv stacks,
detection and segmentation heads) trained on the synthetic datasets in
:mod:`repro.nn.data`.  The full-size layer shape tables used by the
accelerator experiments live in :mod:`repro.accelerator.workloads`.
"""

from typing import Callable, Dict

from repro.nn.models.resnet import ResNet, resnet18_mini, resnet50_mini, BasicBlock, Bottleneck
from repro.nn.models.mobilenet import MobileNetV1, MobileNetV2, mobilenet_v1_mini, mobilenet_v2_mini
from repro.nn.models.efficientnet import EfficientNetLite, efficientnet_lite_mini
from repro.nn.models.vgg import VGG, vgg16_mini
from repro.nn.models.alexnet import AlexNet, alexnet_mini
from repro.nn.models.detection import SimpleDetector, simple_detector_mini
from repro.nn.models.deeplab import DeepLabLite, deeplab_lite_mini

#: classification model zoo, keyed by the names the pipeline's scenario
#: registry (and the benchmark harness) use
MODEL_ZOO: Dict[str, Callable] = {
    "resnet18": resnet18_mini,
    "resnet50": resnet50_mini,
    "mobilenet_v1": mobilenet_v1_mini,
    "mobilenet_v2": mobilenet_v2_mini,
    "efficientnet": efficientnet_lite_mini,
    "vgg16": vgg16_mini,
    "alexnet": alexnet_mini,
}


__all__ = [
    "MODEL_ZOO",
    "ResNet",
    "BasicBlock",
    "Bottleneck",
    "resnet18_mini",
    "resnet50_mini",
    "MobileNetV1",
    "MobileNetV2",
    "mobilenet_v1_mini",
    "mobilenet_v2_mini",
    "EfficientNetLite",
    "efficientnet_lite_mini",
    "VGG",
    "vgg16_mini",
    "AlexNet",
    "alexnet_mini",
    "SimpleDetector",
    "simple_detector_mini",
    "DeepLabLite",
    "deeplab_lite_mini",
]
