"""A small, self-contained numpy DNN framework.

This package is the training/inference substrate the MVQ reproduction is
built on.  It provides parameterised layers with explicit forward and
backward passes, composite modules, optimizers, losses, synthetic datasets,
a trainer, a FLOPs counter and a model zoo mirroring the architectures the
paper evaluates (ResNets, MobileNets, EfficientNet, VGG, AlexNet, a
detection head and a DeepLab-style segmentation head).
"""

from repro.nn.tensor import Parameter
from repro.nn.module import Module, Sequential
from repro.nn.layers import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadAttention,
    ReLU,
    ReLU6,
    SequenceMean,
    Upsample2d,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss, Loss
from repro.nn.optim import SGD, Adam, AdamW, Optimizer
from repro.nn.train import Trainer, evaluate_accuracy
from repro.nn.flops import count_flops, count_sparse_flops, count_parameters
from repro.nn.compressed import (
    CentroidEngine,
    CompressedConv2d,
    CompressedLinear,
    compress_module,
    swap_to_compressed,
)
from repro.nn.serve import predict_batched, prepare_for_serving

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Add",
    "LayerNorm",
    "MultiHeadAttention",
    "SequenceMean",
    "Upsample2d",
    "Loss",
    "CrossEntropyLoss",
    "MSELoss",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "Trainer",
    "evaluate_accuracy",
    "count_flops",
    "count_sparse_flops",
    "count_parameters",
    "CentroidEngine",
    "CompressedConv2d",
    "CompressedLinear",
    "compress_module",
    "swap_to_compressed",
    "predict_batched",
    "prepare_for_serving",
]
