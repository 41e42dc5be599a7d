"""ResNet for CIFAR-shaped inputs (He et al., 2016), default depth 20.

The CIFAR ResNet family has depth 6n+2: an initial 3×3 convolution, three
stages of n basic blocks with 16/32/64 base channels, and a global-average-
pool + linear classifier.  ResNet-20 (n=3) has ≈0.27 M parameters, matching
the paper's Table 1 entry of 269,722.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import nn
from repro.tensor import Tensor
from repro.utils.rng import new_rng


def _child_rng(rng: np.random.Generator) -> np.random.Generator:
    return np.random.default_rng(rng.integers(0, 2**63 - 1))


class BasicBlock(nn.Module):
    """Two 3×3 convolutions with a residual connection.

    When the block changes resolution/width, the shortcut is a 1×1 strided
    convolution (projection shortcut, option B of the ResNet paper).
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else new_rng("basic_block", in_channels, out_channels)
        self.conv1 = nn.Conv2d(in_channels, out_channels, 3, stride=stride, padding=1,
                               bias=False, rng=_child_rng(rng))
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.conv2 = nn.Conv2d(out_channels, out_channels, 3, stride=1, padding=1,
                               bias=False, rng=_child_rng(rng))
        self.bn2 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = nn.Conv2d(in_channels, out_channels, 1, stride=stride,
                                      bias=False, rng=_child_rng(rng))
            self.shortcut_bn = nn.BatchNorm2d(out_channels)
        else:
            self.shortcut = None
            self.shortcut_bn = None

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Residual block over a stacked ``(P, N, C, H, W)`` replica batch."""
        out = self.bn1.forward_batched(self.conv1.forward_batched(x, stack), stack).relu()
        out = self.bn2.forward_batched(self.conv2.forward_batched(out, stack), stack)
        identity = x
        if self.shortcut is not None:
            identity = self.shortcut_bn.forward_batched(
                self.shortcut.forward_batched(x, stack), stack)
        return (out + identity).relu()


class ResNet(nn.Module):
    """CIFAR-style ResNet of depth ``6 * blocks_per_stage + 2``.

    Parameters
    ----------
    blocks_per_stage:
        Number of basic blocks in each of the three stages (3 → ResNet-20).
    base_channels:
        Channel widths of the three stages.
    num_classes:
        Output classes.
    in_channels:
        Input image channels (3 for CIFAR).
    """

    def __init__(self, blocks_per_stage: int = 3,
                 base_channels: Sequence[int] = (16, 32, 64),
                 num_classes: int = 10, in_channels: int = 3, seed: int = 0):
        super().__init__()
        if len(base_channels) != 3:
            raise ValueError("ResNet expects three stage widths")
        rng = new_rng("resnet", blocks_per_stage, tuple(base_channels), seed=seed)
        c1, c2, c3 = (int(c) for c in base_channels)

        self.conv1 = nn.Conv2d(in_channels, c1, 3, stride=1, padding=1, bias=False,
                               rng=_child_rng(rng))
        self.bn1 = nn.BatchNorm2d(c1)
        self.stage1 = self._make_stage(c1, c1, blocks_per_stage, stride=1, rng=rng)
        self.stage2 = self._make_stage(c1, c2, blocks_per_stage, stride=2, rng=rng)
        self.stage3 = self._make_stage(c2, c3, blocks_per_stage, stride=2, rng=rng)
        self.pool = nn.GlobalAvgPool2d()
        self.fc = nn.Linear(c3, int(num_classes), rng=_child_rng(rng))
        self.depth = 6 * blocks_per_stage + 2
        self.num_classes = int(num_classes)

    @staticmethod
    def _make_stage(in_channels: int, out_channels: int, blocks: int, stride: int,
                    rng: np.random.Generator) -> nn.Sequential:
        layers = [BasicBlock(in_channels, out_channels, stride=stride, rng=_child_rng(rng))]
        for _ in range(blocks - 1):
            layers.append(BasicBlock(out_channels, out_channels, stride=1, rng=_child_rng(rng)))
        return nn.Sequential(*layers)

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Classify all replicas' batches at once (``x`` is ``(P, N, C, H, W)``).

        Under an executor, gradients land straight in the world's flat
        buffers via ``stack``'s pinned parameter views.
        """
        out = self.bn1.forward_batched(self.conv1.forward_batched(x, stack), stack).relu()
        out = self.stage1.forward_batched(out, stack)
        out = self.stage2.forward_batched(out, stack)
        out = self.stage3.forward_batched(out, stack)
        out = self.pool.forward_batched(out, stack)
        return self.fc.forward_batched(out, stack)


def ResNet20(num_classes: int = 10, in_channels: int = 3, seed: int = 0) -> ResNet:
    """The ResNet-20 configuration evaluated in the paper."""
    return ResNet(blocks_per_stage=3, base_channels=(16, 32, 64),
                  num_classes=num_classes, in_channels=in_channels, seed=seed)
