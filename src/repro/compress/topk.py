"""Top-K sparsification with error feedback (Stich et al., 2018; Aji & Heafield, 2017).

Each worker keeps a residual memory; every iteration it adds the fresh
gradient to the memory, selects the ``k`` coordinates with the largest
magnitude, transmits their (index, value) pairs, and subtracts the transmitted
part from the memory.  The paper's experiments use ``k = 0.001 n``.

Workers exchange sparse payloads with Allgather (sparse vectors with different
supports cannot be averaged by an Allreduce); each worker then averages the
densified contributions of all workers.

Payload layout: one float32 array ``[indices..., values...]`` where the
indices are int32 bit patterns reinterpreted as float32
(:meth:`TopKCompressor.pack_payload`).  The bit-view is lossless for any
index (an int32 survives a float32 reinterpretation exactly), unlike the
seed's float64 encoding, which doubled the payload memory and would lose
index precision past 2⁵³ coordinates.  Payloads are only ever produced
in-process by ``pack_payload``, so ``unpack_payload`` rejects any other dtype.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.compress.base import Compressor, ExchangeKind, sparsity_k, top_k_indices


class TopKCompressor(Compressor):
    """Magnitude-based top-k sparsification with residual memory.

    Parameters
    ----------
    ratio:
        Fraction of coordinates transmitted each iteration (paper: 0.001).
    error_feedback:
        Keep untransmitted mass in a residual added to the next gradient.
    include_index_bits:
        If True, :meth:`wire_bits` also counts 32-bit indices; the paper's
        Table 2 counts only the 32k value bits, so the default is False.
    """

    name = "topk"
    exchange = ExchangeKind.ALLGATHER
    uses_error_feedback = True

    def __init__(self, ratio: float = 0.001, error_feedback: bool = True,
                 include_index_bits: bool = False):
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = float(ratio)
        self.error_feedback = bool(error_feedback)
        self.include_index_bits = bool(include_index_bits)
        self._residual: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # payload packing
    # ------------------------------------------------------------------ #
    @staticmethod
    def pack_payload(indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Pack (indices, values) into one float32 ``[indices..., values...]``
        array, indices stored as int32 bit patterns."""
        idx_bits = np.ascontiguousarray(indices, dtype=np.int32).view(np.float32)
        return np.concatenate([idx_bits, np.asarray(values, dtype=np.float32)])

    @staticmethod
    def unpack_payload(payload: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`pack_payload` (float32 payloads only)."""
        payload = np.asarray(payload)
        if payload.dtype != np.float32:
            raise TypeError(f"top-k payloads are float32 arrays built by "
                            f"pack_payload, got dtype {payload.dtype}")
        k = payload.size // 2
        indices = np.ascontiguousarray(payload[:k]).view(np.int32).astype(np.int64)
        return indices, payload[k:]

    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        self._residual = None

    # ------------------------------------------------------------------ #
    # kernels: every rank in one call (per-rank calls are a batch of one)
    # ------------------------------------------------------------------ #
    @classmethod
    def select_batch(cls, compressors: Sequence["TopKCompressor"], C: np.ndarray
                     ) -> Union[np.ndarray, List[np.ndarray]]:
        """Per-rank selections over the stacked corrected matrix.

        Top-K (and DGC) select each row with :func:`top_k_indices`;
        subclasses with rank-local randomness or data-dependent thresholds
        (Rand-K, Gaussian-K) override this with a per-rank loop and may return
        a ragged list when selection sizes differ across ranks.
        """
        P, n = C.shape
        k = sparsity_k(n, compressors[0].ratio)
        if k >= n:
            return np.tile(np.arange(n), (P, 1))
        return np.stack([top_k_indices(np.abs(C[p]), k) for p in range(P)])

    @classmethod
    def compress_batch(cls, compressors: Sequence["TopKCompressor"], G: np.ndarray
                       ) -> Tuple[List[np.ndarray], List[Dict]]:
        if not cls._uniform(compressors, "ratio", "error_feedback"):
            return cls._compress_each(compressors, G)
        reference = compressors[0]
        G = np.asarray(G, dtype=np.float32)
        P, n = G.shape
        if reference.error_feedback:
            residuals = cls._stack_state(compressors, "_residual", P, n)
            corrected = residuals + G
        else:
            corrected = G

        selections = cls.select_batch(compressors, corrected)
        ragged = not isinstance(selections, np.ndarray)

        row_index = None if ragged else np.arange(P)[:, None]
        if ragged:
            values = [corrected[p, indices] for p, indices in enumerate(selections)]
        else:
            values = corrected[row_index, selections]
        if reference.error_feedback:
            # ``corrected`` is this call's own sum: zero the sent coordinates
            # in place and keep its rows as the residuals.
            if ragged:
                for p, indices in enumerate(selections):
                    corrected[p, indices] = 0.0
            else:
                # Direct fancy indexing: put_along_axis builds the same index
                # grid through several Python-level helpers per call.
                corrected[row_index, selections] = 0.0
            for p, compressor in enumerate(compressors):
                compressor._residual = corrected[p]

        payloads: List[np.ndarray] = []
        contexts: List[Dict] = []
        for p in range(P):
            payloads.append(cls.pack_payload(selections[p], values[p]))
            contexts.append({"n": n, "k": len(selections[p])})
        return payloads, contexts

    @classmethod
    def decompress_batch(cls, compressors: Sequence["TopKCompressor"],
                         exchanged: Sequence, contexts: Sequence[Dict]) -> np.ndarray:
        """Every rank averages the same densified payloads: rank 0's row,
        computed once and broadcast."""
        n = int(contexts[0]["n"])
        dense = np.zeros(n, dtype=np.float64)
        for payload in exchanged[0]:
            indices, values = cls.unpack_payload(payload)
            # Indices are unique within one payload (they come from a top-k /
            # random-subset / threshold selection), so a direct fancy-index
            # add suffices — no unbuffered np.add.at needed.
            dense[indices] += values.astype(np.float64)
        row = (dense / len(exchanged[0])).astype(np.float32)
        return np.broadcast_to(row, (len(compressors), n))

    # ------------------------------------------------------------------ #
    def wire_bits(self, n: int, world_size: int = 1) -> float:
        k = sparsity_k(n, self.ratio)
        bits = 32.0 * k
        if self.include_index_bits:
            bits += 32.0 * k
        return bits

    def computation_complexity(self, n: int) -> str:
        return "O(n + k log n)"
