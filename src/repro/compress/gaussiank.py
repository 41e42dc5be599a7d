"""Gaussian-K sparsification (Shi et al., 2019).

Gaussian-K avoids the cost of an explicit top-k selection by assuming the
gradient values follow a zero-mean Gaussian distribution: the threshold that
keeps approximately ``k`` of ``n`` coordinates is the ``(1 - k/n)`` quantile
of |N(µ, σ)|, which can be computed from the sample mean and standard
deviation in O(n).  Coordinates whose magnitude exceeds the threshold are
transmitted; the rest stay in the residual.

As in the paper's evaluation, the exchange uses Allgather — which is also why
Gaussian-K slightly outperforms the Allreduce-based A2SGD on iteration time
for the largest model in Figure 4 (see §4.4's discussion).
"""

from __future__ import annotations

from statistics import NormalDist
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.compress.base import ExchangeKind, sparsity_k, top_k_indices
from repro.compress.topk import TopKCompressor


class GaussianKCompressor(TopKCompressor):
    """Sparsification with a Gaussian-estimated magnitude threshold.

    Parameters
    ----------
    ratio:
        Target fraction of transmitted coordinates (paper: 0.001).
    error_feedback:
        Keep the untransmitted mass in a residual (as in Top-K).
    """

    name = "gaussiank"
    exchange = ExchangeKind.ALLGATHER
    uses_error_feedback = True

    def estimate_threshold(self, corrected: np.ndarray) -> float:
        """Magnitude threshold keeping ≈ ``ratio`` of the coordinates.

        For a zero-centred Gaussian with standard deviation σ, the magnitude
        |g| exceeds ``σ · Φ⁻¹(1 − ratio/2)`` with probability ``ratio``.
        """
        sigma = float(corrected.std())
        if sigma == 0.0:
            return 0.0
        mean = float(corrected.mean())
        quantile = 1.0 - self.ratio / 2.0
        return abs(mean) + sigma * NormalDist().inv_cdf(quantile)

    def select(self, corrected: np.ndarray) -> np.ndarray:
        """Indices whose magnitude exceeds the Gaussian-estimated threshold.

        Guarantees at least one coordinate is selected so progress never
        stalls, and caps the selection at 4× the target ``k`` so a badly
        mis-estimated threshold cannot silently blow up the traffic.
        """
        threshold = self.estimate_threshold(corrected)
        indices = np.nonzero(np.abs(corrected) > threshold)[0]
        k_target = sparsity_k(corrected.size, self.ratio)
        if indices.size == 0:
            indices = np.array([int(np.argmax(np.abs(corrected)))])
        elif indices.size > 4 * k_target:
            indices = indices[top_k_indices(np.abs(corrected[indices]), 4 * k_target)]
        return indices

    @classmethod
    def select_batch(cls, compressors, C):
        """Per-rank thresholds depend on each row's sample moments and can
        select different counts per rank, so selection stays a per-rank loop
        (returning a ragged list); the residual update, payload packing and
        gathered reconstruction still use the batched kernels."""
        return [compressor.select(row) for compressor, row in zip(compressors, C)]

    def computation_complexity(self, n: int) -> str:
        return "O(n)"
