"""FNN-3: feed-forward network with three hidden fully-connected layers.

Table 1 of the paper lists FNN-3 on MNIST with 199,210 parameters.  With
28×28 inputs, ten classes and three equal hidden layers of width 174 the
parameter count is 199,240 — within 0.02 % of the paper's figure (the paper
does not give the exact layer widths).  The width is configurable so the
"tiny" preset used in CI trains in seconds.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import nn
from repro.tensor import Tensor
from repro.utils.rng import new_rng


class FNN3(nn.Module):
    """Three-hidden-layer feed-forward classifier.

    Parameters
    ----------
    input_dim:
        Flattened input dimensionality (784 for MNIST-shaped data).
    hidden_dims:
        Widths of the three hidden layers.
    num_classes:
        Number of output classes.
    seed:
        Initialization seed.
    """

    def __init__(self, input_dim: int = 784, hidden_dims: Sequence[int] = (174, 174, 174),
                 num_classes: int = 10, seed: int = 0):
        super().__init__()
        if len(hidden_dims) != 3:
            raise ValueError("FNN3 requires exactly three hidden layers")
        rng = new_rng("fnn3", seed=seed)
        dims = [int(input_dim)] + [int(d) for d in hidden_dims]
        layers = []
        for i in range(3):
            layers.append(nn.Linear(dims[i], dims[i + 1],
                                    rng=np.random.default_rng(rng.integers(0, 2**63 - 1))))
            layers.append(nn.ReLU())
        layers.append(nn.Linear(dims[-1], int(num_classes),
                                rng=np.random.default_rng(rng.integers(0, 2**63 - 1))))
        self.net = nn.Sequential(*layers)
        self.input_dim = int(input_dim)
        self.num_classes = int(num_classes)

    def forward_batched(self, x: Tensor, stack) -> Tensor:
        """Classify stacked replica batches ``(P, N, D)`` or image-shaped
        ``(P, N, C, H, W)`` through autograd.

        The trainer prefers the hand-derived
        :class:`~repro.core.batched_replicas.BatchedReplicaExecutor` for MLPs;
        this body serves the per-replica call (its ``P = 1`` case) and keeps
        FNN models runnable under the generic batched executor as well (e.g.
        inside larger compositions).
        """
        if x.ndim > 3:
            x = x.reshape(x.shape[0], x.shape[1], -1)
        return self.net.forward_batched(x, stack)
