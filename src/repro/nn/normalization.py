"""Batch normalization layers.

ResNet-20 and VGG-16 rely on BatchNorm; the layer keeps running statistics as
buffers (excluded from gradient synchronization, as in the paper's setup where
only gradients are exchanged).  Both layers have one body,
``forward_batched``, which runs the fused
:func:`~repro.tensor.functional.batch_norm` op over a stacked replica batch;
the per-replica call is its ``P = 1`` case.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F, init
from repro.tensor.tensor import invalidate_active_tape, record_tape_effect


class _BatchNormBase(Module):
    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def _update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        m = self.momentum
        self._buffers["running_mean"][...] = (1 - m) * self._buffers["running_mean"] + m * mean
        self._buffers["running_var"][...] = (1 - m) * self._buffers["running_var"] + m * var

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Normalize a stacked ``(P, N, C, ...)`` replica batch per replica.

        Batch statistics stay per replica, and every replica's module
        (``stack.siblings``) updates its running buffers with its own slice's
        statistics — bit-identical to normalizing replica by replica.
        """
        siblings = stack.siblings(self)
        weight, bias = stack.tensor(self.weight), stack.tensor(self.bias)
        if not self.training:
            invalidate_active_tape("batchnorm eval-mode buffers")
            stats = (np.stack([s._buffers["running_mean"] for s in siblings]),
                     np.stack([s._buffers["running_var"] for s in siblings]))
            return F.batch_norm(x, weight, bias, self.eps, stats)[0]
        out, mean, var = F.batch_norm(x, weight, bias, self.eps)

        def update_running() -> None:
            # Iterates the op's mean/var workspaces at call time, so a tape
            # replay that refreshed them in place updates the same statistics.
            for sibling, m_row, v_row in zip(siblings, mean, var):
                sibling._update_running(m_row, v_row)

        update_running()
        record_tape_effect(update_running)
        return out


class BatchNorm1d(_BatchNormBase):
    """Batch normalization over a (N, C) tensor."""


class BatchNorm2d(_BatchNormBase):
    """Batch normalization over an (N, C, H, W) tensor, per channel."""
