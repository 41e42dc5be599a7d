"""TernGrad — ternary gradient quantization (Wen et al., 2017; extension baseline).

Each coordinate is quantized to ``s_t · {-1, 0, +1}`` where ``s_t = max|g|``
and the ternary value is drawn so the encoding is unbiased:
``P(b_i = 1) = |g_i| / s_t``.  The wire cost is roughly 2 bits per coordinate
plus one scalar for ``s_t``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compress.base import Compressor, ExchangeKind, scaled_payloads_mean
from repro.utils.rng import new_rng


class TernGradCompressor(Compressor):
    """Unbiased ternary quantization with a shared per-tensor scale."""

    name = "terngrad"
    exchange = ExchangeKind.ALLGATHER
    uses_error_feedback = False

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 clip_std: Optional[float] = 2.5):
        self.rng = rng if rng is not None else new_rng("terngrad")
        #: Optional gradient clipping (in standard deviations) recommended by
        #: the TernGrad paper to bound the scale; ``None`` disables it.
        self.clip_std = clip_std

    @classmethod
    def compress_batch(cls, compressors: Sequence["TernGradCompressor"], G: np.ndarray
                       ) -> Tuple[List[np.ndarray], List[Dict]]:
        """Ternarize row by row in rank order: each rank's clip bound and
        scale come from its own row, its stochastic rounding from its own
        RNG stream."""
        G = np.asarray(G, dtype=np.float32).astype(np.float64)
        P, n = G.shape
        payloads: List[np.ndarray] = []
        for p, compressor in enumerate(compressors):
            gradient = work = G[p]
            if compressor.clip_std is not None and n > 1:
                sigma = gradient.std()
                if sigma > 0:
                    bound = compressor.clip_std * sigma
                    work = np.clip(gradient, -bound, bound)
            scale = float(np.abs(work).max())
            if scale == 0.0:
                ternary = np.zeros(n, dtype=np.int8)
            else:
                probability = np.abs(work) / scale
                ternary = (np.sign(work) * (compressor.rng.random(n) < probability)
                           ).astype(np.int8)
            payloads.append(np.concatenate([[scale], ternary.astype(np.float64)]))
        return payloads, [{"n": n} for _ in range(P)]

    @classmethod
    def decompress_batch(cls, compressors: Sequence["TernGradCompressor"],
                         exchanged: Sequence, contexts: Sequence[Dict]) -> np.ndarray:
        """Every rank averages the same gathered payloads: one row, computed
        once and broadcast."""
        row = scaled_payloads_mean(exchanged[0], int(contexts[0]["n"]))
        return np.broadcast_to(row, (len(compressors), row.size))

    def wire_bits(self, n: int, world_size: int = 1) -> float:
        """Two bits per coordinate (three levels) plus one 32-bit scale."""
        return 2.0 * n + 32.0

    def computation_complexity(self, n: int) -> str:
        return "O(n)"
