"""Dense SGD: the default algorithm that exchanges full 32-bit gradients."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.compress.base import Compressor, ExchangeKind


class DenseCompressor(Compressor):
    """No compression: each worker Allreduces its full gradient.

    Table 2: 32n bits of traffic per worker, O(1) local processing (there is
    nothing to compute before the exchange).
    """

    name = "dense"
    exchange = ExchangeKind.ALLREDUCE
    uses_error_feedback = False

    @classmethod
    def compress_batch(cls, compressors: Sequence["DenseCompressor"], G: np.ndarray
                       ) -> Tuple[List[np.ndarray], List[Dict]]:
        """Zero-copy: the payloads *are* the rows of the gradient matrix."""
        return list(np.asarray(G, dtype=np.float32)), [{} for _ in compressors]

    @classmethod
    def decompress_batch(cls, compressors: Sequence["DenseCompressor"],
                         exchanged: Sequence, contexts: Sequence[Dict]) -> np.ndarray:
        return cls._stack_rows([np.asarray(e, dtype=np.float32) for e in exchanged])

    def wire_bits(self, n: int, world_size: int = 1) -> float:
        return 32.0 * n

    def computation_complexity(self, n: int) -> str:
        return "O(1)"
