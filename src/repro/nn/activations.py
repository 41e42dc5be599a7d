"""Activation-function layers."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import Tensor


class ReLU(Module):
    """Rectified linear unit."""

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Elementwise, so the stacked replica batch needs no special handling."""
        return x.relu()


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Logistic sigmoid."""

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        return x.sigmoid()
