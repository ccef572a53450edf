"""ResNet-18 (CIFAR-style) with four searchable dropout slots.

Paper specification (Sec. 4.1): four dropout layers follow convolutional
stages, each with all four dropout choices.  The slots sit after the
four residual stages (channel widths 64/128/256/512 at width 1.0).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import nn
from repro.models.slots import DropoutSlot
from repro.utils.rng import SeedLike, child_rng, new_rng
from repro.utils.validation import check_positive_int


class BasicBlock(nn.Module):
    """Standard two-conv residual block with identity or 1x1 shortcut."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 rng: SeedLike = None) -> None:
        super().__init__()
        root = new_rng(rng)
        self.conv1 = nn.Conv2d(in_channels, out_channels, 3, stride=stride,
                               padding=1, bias=False, rng=child_rng(root))
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.relu1 = nn.ReLU()
        self.conv2 = nn.Conv2d(out_channels, out_channels, 3, padding=1,
                               bias=False, rng=child_rng(root))
        self.bn2 = nn.BatchNorm2d(out_channels)
        self.add = nn.Add()
        self.relu2 = nn.ReLU()
        self.downsample: Optional[nn.Sequential] = None
        if stride != 1 or in_channels != out_channels:
            self.downsample = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride,
                          bias=False, rng=child_rng(root)),
                nn.BatchNorm2d(out_channels),
            )

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        identity = self.downsample(x) if self.downsample is not None else x
        return self.relu2(self.add(out, identity))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g_main, g_skip = self.add.backward(self.relu2.backward(grad_out))
        g_main = self.bn2.backward(g_main)
        g_main = self.conv2.backward(g_main)
        g_main = self.relu1.backward(g_main)
        g_main = self.bn1.backward(g_main)
        g_main = self.conv1.backward(g_main)
        if self.downsample is not None:
            g_skip = self.downsample.backward(g_skip)
        return g_main + g_skip


class ResNet18(nn.Module):
    """CIFAR-style ResNet-18 exposing four dropout slots.

    Uses the 3x3 stem (no 7x7 conv / stem pooling) appropriate for
    32x32-scale inputs, as is standard for CIFAR-10 experiments.

    Args:
        in_channels: input image channels.
        num_classes: classifier output size.
        image_size: square input side length (accepted for interface
            parity; ResNet is fully convolutional so any size >= 8
            works).
        width_mult: channel multiplier for slim CI-scale variants.
        blocks_per_stage: residual blocks per stage (2 for ResNet-18;
            1 gives a ResNet-10-style slim model).
        rng: seed or generator for weight init.
    """

    def __init__(self, in_channels: int = 3, num_classes: int = 10,
                 image_size: int = 32, *, width_mult: float = 1.0,
                 blocks_per_stage: int = 2, rng: SeedLike = None) -> None:
        super().__init__()
        check_positive_int(in_channels, "in_channels")
        check_positive_int(num_classes, "num_classes")
        check_positive_int(image_size, "image_size")
        check_positive_int(blocks_per_stage, "blocks_per_stage")
        if width_mult <= 0:
            raise ValueError(f"width_mult must be positive, got {width_mult}")
        root = new_rng(rng)
        widths = [max(4, int(round(w * width_mult)))
                  for w in (64, 128, 256, 512)]

        self.in_channels = in_channels
        self.num_classes = num_classes
        self.image_size = image_size

        self.stem_conv = nn.Conv2d(in_channels, widths[0], 3, padding=1,
                                   bias=False, rng=child_rng(root))
        self.stem_bn = nn.BatchNorm2d(widths[0])
        self.stem_relu = nn.ReLU()

        self.stages: List[nn.Sequential] = []
        self.slots: List[DropoutSlot] = []
        channels = widths[0]
        for i, width in enumerate(widths):
            stride = 1 if i == 0 else 2
            blocks: List[nn.Module] = [
                BasicBlock(channels, width, stride, rng=child_rng(root))
            ]
            for _ in range(blocks_per_stage - 1):
                blocks.append(BasicBlock(width, width, 1, rng=child_rng(root)))
            channels = width
            stage = nn.Sequential(*blocks)
            slot = DropoutSlot(f"stage{i + 1}", "conv")
            stage.append(slot)
            self.stages.append(stage)
            self.slots.append(slot)

        self.gap = nn.GlobalAvgPool2d()
        self.fc = nn.Linear(channels, num_classes, rng=child_rng(root))

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.stem_relu(self.stem_bn(self.stem_conv(x)))
        for stage in self.stages:
            x = stage(x)
        x = self.gap(x)
        return self.fc(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.fc.backward(grad_out)
        g = self.gap.backward(g)
        for stage in reversed(self.stages):
            g = stage.backward(g)
        g = self.stem_relu.backward(g)
        g = self.stem_bn.backward(g)
        return self.stem_conv.backward(g)
