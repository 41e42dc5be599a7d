"""Token embedding layer (used by the LSTM-PTB language model)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F, init
from repro.utils.rng import new_rng


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors.

    Parameters
    ----------
    num_embeddings:
        Vocabulary size ``V``.
    embedding_dim:
        Vector dimensionality ``D``.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.num_embeddings = int(num_embeddings)
        self.embedding_dim = int(embedding_dim)
        rng = rng if rng is not None else new_rng("embedding", num_embeddings, embedding_dim)
        self.weight = Parameter(init.uniform((num_embeddings, embedding_dim), rng, bound=0.1))

    def forward_batched(self, indices: np.ndarray, stack) -> Tensor:
        """Look all replicas' tokens up at once: ``(P, ...)`` indices against
        the stacked ``(P, V, D)`` tables (bit-identical per replica)."""
        return F.embedding_batched(indices, stack.tensor(self.weight))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"
