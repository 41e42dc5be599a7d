"""Pooling layers."""

from __future__ import annotations

from typing import Optional

from repro.nn.module import Module
from repro.tensor import Tensor, functional as F


class MaxPool2d(Module):
    """Max pooling over square windows."""

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Pool a stacked ``(P, N, C, H, W)`` replica batch."""
        return F.max_pool2d_batched(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    """Average pooling over square windows."""

    def __init__(self, kernel_size: int = 2):
        super().__init__()
        self.kernel_size = int(kernel_size)

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, producing (N, C)."""

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Average ``(P, N, C, H, W)`` over the spatial axes → ``(P, N, C)``."""
        return x.mean(axis=(3, 4))
