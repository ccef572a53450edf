"""A from-scratch numpy deep-learning substrate.

Replaces PyTorch/Keras for this reproduction (see DESIGN.md).  Provides
stateful layers with manual forward/backward passes, optimizers and
losses — everything the dropout-search framework needs.
"""

from repro.nn.activations import Flatten, LeakyReLU, ReLU
from repro.nn.container import Sequential
from repro.nn.conv import Conv2d
from repro.nn.fastpath import (
    TrainWorkspace,
    current_workspace,
    fast_training,
)
from repro.nn.functional import (
    col2im,
    conv_output_size,
    im2col,
    log_softmax,
    one_hot,
    softmax,
)
from repro.nn.inference import (
    MCBatchContext,
    current_mc_batch,
    inference_mode,
    is_inference,
    mc_batch,
)
from repro.nn.linear import Linear
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import DTYPE, Add, Identity, Module, Parameter
from repro.nn.norm import BatchNorm2d
from repro.nn.optim import SGD, Adam
from repro.nn.pool import AvgPool2d, GlobalAvgPool2d, MaxPool2d

__all__ = [
    "DTYPE",
    "SGD",
    "Adam",
    "Add",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "CrossEntropyLoss",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "LeakyReLU",
    "Linear",
    "MCBatchContext",
    "MaxPool2d",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "TrainWorkspace",
    "col2im",
    "conv_output_size",
    "current_mc_batch",
    "current_workspace",
    "fast_training",
    "im2col",
    "inference_mode",
    "is_inference",
    "log_softmax",
    "mc_batch",
    "one_hot",
    "softmax",
]
