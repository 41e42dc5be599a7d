"""Rand-K sparsification (extension baseline).

Rand-K transmits a uniformly random subset of ``k`` coordinates each
iteration.  Stich et al. (2018) show that with error feedback it converges at
the same asymptotic rate as Top-K; in practice it needs more iterations
because it ignores gradient magnitude.  The paper mentions Rand-K in related
work ([27]); it is included here as an extra baseline for ablation studies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compress.base import ExchangeKind, sparsity_k
from repro.compress.topk import TopKCompressor
from repro.utils.rng import new_rng


class RandKCompressor(TopKCompressor):
    """Uniform-random k-coordinate sparsification with residual memory."""

    name = "randk"
    exchange = ExchangeKind.ALLGATHER
    uses_error_feedback = True

    def __init__(self, ratio: float = 0.001, error_feedback: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(ratio=ratio, error_feedback=error_feedback)
        self.rng = rng if rng is not None else new_rng("randk", ratio)

    def select(self, corrected: np.ndarray) -> np.ndarray:
        k = sparsity_k(corrected.size, self.ratio)
        k = min(k, corrected.size)
        return self.rng.choice(corrected.size, size=k, replace=False)

    @classmethod
    def select_batch(cls, compressors, C):
        """Rank-local RNG streams force a per-rank draw loop (in rank order,
        so a rank draws the same indices in a batch of P as in a batch of
        one); everything else in the batched compress stays vectorized."""
        return [compressor.select(row) for compressor, row in zip(compressors, C)]

    def computation_complexity(self, n: int) -> str:
        return "O(k)"
