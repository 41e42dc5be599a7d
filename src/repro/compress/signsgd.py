"""SignSGD / 1-bit SGD with error feedback (Seide et al., 2014; Karimireddy et al., 2019).

Each coordinate is reduced to its sign, scaled by the mean magnitude of the
(error-corrected) gradient so the update is on the right scale; the
quantization residual is kept locally and added to the next gradient
(the EF-signSGD fix that restores convergence).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.compress.base import Compressor, ExchangeKind, scaled_payloads_mean


class SignSGDCompressor(Compressor):
    """1-bit sign compression with mean-magnitude scaling and error feedback."""

    name = "signsgd"
    exchange = ExchangeKind.ALLGATHER
    uses_error_feedback = True

    def __init__(self, error_feedback: bool = True):
        self.error_feedback = bool(error_feedback)
        self._residual: np.ndarray | None = None

    def reset_state(self) -> None:
        self._residual = None

    @classmethod
    def compress_batch(cls, compressors: Sequence["SignSGDCompressor"], G: np.ndarray
                       ) -> Tuple[List[np.ndarray], List[Dict]]:
        """Sign-compress row by row: each rank's scale is the mean magnitude
        of its own error-corrected row."""
        G = np.asarray(G, dtype=np.float32)
        P, n = G.shape
        payloads: List[np.ndarray] = []
        for p, compressor in enumerate(compressors):
            if compressor.error_feedback:
                if compressor._residual is None or compressor._residual.shape != (n,):
                    compressor._residual = np.zeros(n, dtype=np.float32)
                corrected = compressor._residual + G[p]
            else:
                corrected = G[p]
            scale = float(np.abs(corrected).mean())
            signs = np.sign(corrected)
            if compressor.error_feedback:
                compressor._residual = corrected - np.float32(scale) * signs
            payloads.append(np.concatenate([[scale], signs.astype(np.float64)]))
        return payloads, [{"n": n} for _ in range(P)]

    @classmethod
    def decompress_batch(cls, compressors: Sequence["SignSGDCompressor"],
                         exchanged: Sequence, contexts: Sequence[Dict]) -> np.ndarray:
        """Every rank averages the same gathered payloads: one row, computed
        once and broadcast."""
        row = scaled_payloads_mean(exchanged[0], int(contexts[0]["n"]))
        return np.broadcast_to(row, (len(compressors), row.size))

    def wire_bits(self, n: int, world_size: int = 1) -> float:
        """One bit per coordinate plus one 32-bit scale."""
        return float(n) + 32.0

    def computation_complexity(self, n: int) -> str:
        return "O(n)"
