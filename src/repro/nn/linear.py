"""Fully-connected (affine) layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, init
from repro.utils.rng import new_rng


class Linear(Module):
    """Affine transformation ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to learn an additive bias.
    rng:
        Generator used for weight initialization; a deterministic default is
        derived from the layer dimensions when omitted.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        rng = rng if rng is not None else new_rng("linear", in_features, out_features)
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        if bias:
            self.bias = Parameter(init.zeros((out_features,)))
        else:
            self.bias = None

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Affine map of all replicas at once: ``(P, N, in) -> (P, N, out)``.

        ``stack`` (a :class:`~repro.core.batched_replicas.ReplicaStack`)
        resolves this layer's parameters to their stacked ``(P, *shape)``
        autograd tensors; one stacked GEMM replaces the per-replica loop with
        bit-identical arithmetic.
        """
        weight = stack.tensor(self.weight)
        out = x.matmul(weight.transpose((0, 2, 1)))
        if self.bias is not None:
            out = out + stack.tensor(self.bias).reshape(x.shape[0], 1, self.out_features)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear({self.in_features}, {self.out_features})"
