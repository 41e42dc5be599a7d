"""2-D convolution layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F, init
from repro.utils.rng import new_rng


class Conv2d(Module):
    """Square-kernel 2-D convolution on NCHW tensors.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel side length.
    stride, padding:
        Convolution stride and symmetric zero padding.
    bias:
        Whether to learn a per-channel bias (often disabled before BatchNorm).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        rng = rng if rng is not None else new_rng("conv2d", in_channels, out_channels, kernel_size)
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng))
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)))
        else:
            self.bias = None

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Convolve all replicas at once with stacked ``(P, ...)`` filters.

        One im2col gathers every replica's patches and one stacked GEMM per
        direction replaces the per-replica loop (see
        :func:`repro.tensor.functional.conv2d_batched`); each replica slice is
        bit-identical to convolving that replica alone.
        """
        bias = stack.tensor(self.bias) if self.bias is not None else None
        return F.conv2d_batched(x, stack.tensor(self.weight), bias,
                                stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})")
