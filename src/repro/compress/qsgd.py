"""QSGD — stochastic multi-level gradient quantization (Alistarh et al., 2017).

A gradient coordinate ``v_i`` is encoded as ``‖v‖₂ · sgn(v_i) · ξ_i`` where
``ξ_i`` is a random variable on the quantization grid ``{0, 1/s, ..., 1}``
chosen so that the encoding is unbiased:  with ``ℓ/s ≤ |v_i|/‖v‖₂ < (ℓ+1)/s``
the coordinate rounds up to ``(ℓ+1)/s`` with probability
``|v_i|/‖v‖₂ · s − ℓ`` and down to ``ℓ/s`` otherwise.

Following the paper's appendix, the quantization level is ``s = 4`` and the
wire cost per worker is taken as ``2.8 n + 32`` bits (the Elias-coded size
reported by Alistarh et al. for low ``s``).  The reference implementation the
paper benchmarks ([42]) computes the 2-norm and then quantizes each gradient
in a Python loop, which is why Table 2 lists its computation complexity as
O(n²); here the quantization itself is vectorised, and the cost model charges
the O(n²) behaviour analytically when reproducing Figure 2/Table 2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compress.base import Compressor, ExchangeKind
from repro.utils.rng import new_rng


class QSGDCompressor(Compressor):
    """Unbiased stochastic quantization to ``s`` levels per sign.

    Parameters
    ----------
    levels:
        Number of quantization levels ``s`` (paper appendix: 4).
    error_feedback:
        Keep the quantization residual and add it to the next gradient
        (the error-compensated variant; Table 2 notes all non-dense baselines
        keep a local error vector).
    bucket_size:
        Quantize the gradient in buckets of this many coordinates, each with
        its own 2-norm, as the reference QSGD implementation does.  Smaller
        buckets mean lower quantization noise at the cost of extra scalars on
        the wire.  ``None`` quantizes the whole vector against a single norm.
    rng:
        Generator for the stochastic rounding (reproducible by default).
    """

    name = "qsgd"
    exchange = ExchangeKind.ALLGATHER
    uses_error_feedback = True

    def __init__(self, levels: int = 4, error_feedback: bool = True,
                 bucket_size: Optional[int] = 512,
                 rng: Optional[np.random.Generator] = None):
        if levels < 1:
            raise ValueError("levels must be >= 1")
        if bucket_size is not None and bucket_size < 1:
            raise ValueError("bucket_size must be positive or None")
        self.levels = int(levels)
        self.error_feedback = bool(error_feedback)
        self.bucket_size = int(bucket_size) if bucket_size is not None else None
        self.rng = rng if rng is not None else new_rng("qsgd", levels)
        self._residual: np.ndarray | None = None

    def reset_state(self) -> None:
        self._residual = None

    # ------------------------------------------------------------------ #
    def _bucket_bounds(self, n: int) -> np.ndarray:
        size = self.bucket_size or n
        return np.arange(0, n + size, size)[:max(2, int(np.ceil(n / size)) + 1)]

    def _bucket_sizes(self, n: int) -> np.ndarray:
        bounds = self._bucket_bounds(n)
        return np.minimum(bounds[1:], n) - bounds[:-1]

    def _quantize_rows(self, M: np.ndarray,
                       rngs: Sequence[np.random.Generator]) -> Tuple[np.ndarray, np.ndarray]:
        """Bucketed quantization of ``(P, n)`` rows, vectorized over buckets.

        Rows are zero-padded to whole buckets and reshaped to
        ``(P, buckets, bucket_size)`` so the per-bucket norms and the
        stochastic rounding are single axis operations.  The rounding draws
        come from ``rngs[p]`` in rank order — one ``random()`` call per rank —
        so a one-row call and a stacked call consume each rank's stream
        identically.
        """
        P, n = M.shape
        size = int(self.bucket_size or n)
        bounds = self._bucket_bounds(n)
        num_buckets = len(bounds) - 1
        padded = np.zeros((P, num_buckets * size), dtype=np.float32)
        padded[:, :n] = M
        blocks = padded.reshape(P, num_buckets, size)

        norms32 = np.sqrt((blocks * blocks).sum(axis=2, dtype=np.float32))
        safe_norms = np.where(norms32 > 0, norms32, np.float32(1.0))
        scaled = np.abs(blocks) / safe_norms[:, :, None] * self.levels
        lower = np.floor(scaled)
        probability_up = scaled - lower
        draws = np.stack([rng.random((num_buckets, size)) for rng in rngs])
        rounded = np.clip(lower + (draws < probability_up), 0, self.levels)
        signed = (np.sign(blocks) * rounded).astype(np.int8)
        return norms32.astype(np.float64), signed.reshape(P, -1)[:, :n]

    def dequantize_bucketed(self, norms: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_quantize_rows` (row- or matrix-shaped).

        Accepts ``(B,)``/``(n,)`` vectors or stacked ``(P, B)``/``(P, n)``
        matrices; the per-bucket scales are expanded with one ``np.repeat``
        instead of a Python loop over buckets.
        """
        norms = np.asarray(norms, dtype=np.float64)
        levels = np.asarray(levels)
        n = levels.shape[-1]
        sizes = self._bucket_sizes(n)
        scales = np.repeat(norms, sizes, axis=-1)
        return np.asarray(levels, dtype=np.float64) / self.levels * scales

    # ------------------------------------------------------------------ #
    @classmethod
    def compress_batch(cls, compressors: Sequence["QSGDCompressor"], G: np.ndarray
                       ) -> Tuple[List[np.ndarray], List[Dict]]:
        if not cls._uniform(compressors, "levels", "error_feedback", "bucket_size"):
            return cls._compress_each(compressors, G)
        reference = compressors[0]
        G = np.asarray(G, dtype=np.float32)
        P, n = G.shape
        if reference.error_feedback:
            residuals = cls._stack_state(compressors, "_residual", P, n)
            corrected = residuals + G
        else:
            corrected = G

        norms, levels = reference._quantize_rows(corrected, [c.rng for c in compressors])
        if reference.error_feedback:
            # ``corrected`` is this call's own sum: it becomes the residuals.
            corrected -= reference.dequantize_bucketed(norms, levels).astype(np.float32)
            for p, compressor in enumerate(compressors):
                compressor._residual = corrected[p]

        # Payload layout: [#buckets, norms..., levels...] — levels are small
        # integers, so a real deployment would entropy-code them into ≈2.8
        # bits each.
        num_buckets = norms.shape[1]
        payloads = [np.concatenate([[float(num_buckets)], norms[p],
                                    levels[p].astype(np.float64)]) for p in range(P)]
        return payloads, [{"n": n} for _ in range(P)]

    @classmethod
    def decompress_batch(cls, compressors: Sequence["QSGDCompressor"],
                         exchanged: Sequence, contexts: Sequence[Dict]) -> np.ndarray:
        """Every rank averages the same dequantized payloads (with rank 0's
        levels and bucket size): one row, computed once and broadcast."""
        n = int(contexts[0]["n"])
        total = np.zeros(n, dtype=np.float64)
        for payload in exchanged[0]:
            payload = np.asarray(payload, dtype=np.float64)
            num_buckets = int(payload[0])
            norms = payload[1:1 + num_buckets]
            levels = payload[1 + num_buckets:]
            total += compressors[0].dequantize_bucketed(norms, levels)
        row = (total / len(exchanged[0])).astype(np.float32)
        return np.broadcast_to(row, (len(compressors), n))

    # ------------------------------------------------------------------ #
    def contraction_problem(self) -> Optional[str]:
        """QSGD's per-bucket error bound is ``(b/s²)·‖v‖²`` for ``b``
        coordinates at ``s`` levels: the quantization contracts only when
        ``levels >= sqrt(bucket_size)``.  The paper-default ``s = 4`` with
        512-coordinate buckets is unbiased but *not* contractive."""
        if self.bucket_size is None:
            return ("qsgd with bucket_size=None quantizes against the whole-"
                    "vector norm, so its error bound n/levels^2 grows with the "
                    "model size and the compression is not contractive; set a "
                    "bucket_size <= levels^2")
        if self.levels * self.levels < self.bucket_size:
            required = int(np.ceil(np.sqrt(self.bucket_size)))
            return (f"qsgd with levels={self.levels} and "
                    f"bucket_size={self.bucket_size} is not contractive "
                    f"(needs levels >= sqrt(bucket_size) = {required}); "
                    f"error feedback cannot drain the residual of a "
                    f"non-contractive codec — raise levels or shrink "
                    f"bucket_size (e.g. levels=16, bucket_size=64)")
        return None

    def wire_bits(self, n: int, world_size: int = 1) -> float:
        """The paper quotes 2.8n + 32 bits for QSGD at low quantization levels."""
        return 2.8 * n + 32.0

    def computation_complexity(self, n: int) -> str:
        """Complexity of the reference (non-vectorised) implementation in Table 2."""
        return "O(n^2)"
