"""VGG-16 adapted for CIFAR-shaped inputs (Simonyan & Zisserman, 2015).

The CIFAR variant keeps the 13 convolutional layers of configuration "D" and
replaces the ImageNet classifier with a single 512→classes linear layer,
giving ≈14.7 M parameters — the value listed in Table 1 of the paper
(14,728,266).  Channel widths are configurable so the "tiny" preset used in
tests is fast.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.tensor import Tensor
from repro.utils.rng import new_rng

# Configuration "D" from the VGG paper: numbers are output channels, "M" is 2x2 max pool.
VGG16_LAYOUT: Sequence[Union[int, str]] = (
    64, 64, "M",
    128, 128, "M",
    256, 256, 256, "M",
    512, 512, 512, "M",
    512, 512, 512, "M",
)


def _child_rng(rng: np.random.Generator) -> np.random.Generator:
    return np.random.default_rng(rng.integers(0, 2**63 - 1))


class VGG16(nn.Module):
    """VGG-16 with BatchNorm for CIFAR-sized images.

    Parameters
    ----------
    num_classes:
        Output classes.
    in_channels:
        Input image channels.
    width_multiplier:
        Scales every convolutional width; 1.0 reproduces the paper model, a
        small value (e.g. 0.125) gives a fast test model with the same shape.
    image_size:
        Input spatial size; must be divisible by 32 so five pools reach 1×1
        (or a small spatial map that global pooling collapses).
    """

    def __init__(self, num_classes: int = 10, in_channels: int = 3,
                 width_multiplier: float = 1.0, image_size: int = 32, seed: int = 0):
        super().__init__()
        if image_size % 32 != 0:
            raise ValueError("image_size must be a multiple of 32 for five pooling stages")
        rng = new_rng("vgg16", width_multiplier, seed=seed)
        layers: List[nn.Module] = []
        channels = int(in_channels)
        final_width = 0
        for item in VGG16_LAYOUT:
            if item == "M":
                layers.append(nn.MaxPool2d(2))
                continue
            width = max(1, int(round(int(item) * width_multiplier)))
            layers.append(nn.Conv2d(channels, width, 3, padding=1, bias=False,
                                    rng=_child_rng(rng)))
            layers.append(nn.BatchNorm2d(width))
            layers.append(nn.ReLU())
            channels = width
            final_width = width
        self.features = nn.Sequential(*layers)
        self.pool = nn.GlobalAvgPool2d()
        self.classifier = nn.Linear(final_width, int(num_classes), rng=_child_rng(rng))
        self.num_classes = int(num_classes)

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Classify all replicas' batches at once (``x`` is ``(P, N, C, H, W)``)."""
        out = self.features.forward_batched(x, stack)
        out = self.pool.forward_batched(out, stack)
        return self.classifier.forward_batched(out, stack)
