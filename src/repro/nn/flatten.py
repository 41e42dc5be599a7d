"""Flatten layer: collapse all non-batch dimensions."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import Tensor


class Flatten(Module):
    """Reshape ``(N, ...)`` into ``(N, prod(...))``."""

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Keep the leading replica axis; collapse per-sample dimensions."""
        return x.reshape(x.shape[0], x.shape[1], -1)
