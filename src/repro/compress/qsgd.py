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
    def _buckets(self, n: int) -> Tuple[int, int]:
        """``(bucket size, bucket count)`` for an ``n``-coordinate vector; the
        last bucket is ragged when ``n`` is not a multiple of the size."""
        size = int(self.bucket_size or n)
        return size, max(1, -(-n // size))

    def _quantize_rows(self, M: np.ndarray, rngs: Sequence[np.random.Generator]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Bucketed quantization of ``(P, n)`` rows as whole-matrix passes.

        Rows are zero-padded to whole buckets and viewed as ``(P, buckets,
        bucket_size)`` so the per-bucket norms and the stochastic rounding
        are single axis operations, written in place.  The rounding draws
        come from ``rngs[p]`` in rank order — one ``random(out=...)`` call per
        rank into its slice of one buffer — so a one-row call and a stacked
        call consume each rank's stream identically.  Returns the float32
        norms ``(P, buckets)`` and the signed int8 levels, still padded:
        ``(P, buckets, bucket_size)``.
        """
        P, n = M.shape
        size, num_buckets = self._buckets(n)
        padded = np.zeros((P, num_buckets * size), dtype=np.float32)
        padded[:, :n] = M
        blocks = padded.reshape(P, num_buckets, size)

        norms = np.sqrt((blocks * blocks).sum(axis=2, dtype=np.float32))
        safe_norms = np.where(norms > 0, norms, np.float32(1.0))
        scaled = np.abs(blocks)
        scaled /= safe_norms[:, :, None]
        scaled *= self.levels
        rounded = np.floor(scaled)
        probability_up = np.subtract(scaled, rounded, out=scaled)
        draws = np.empty((P, num_buckets, size))
        for rng, out in zip(rngs, draws):
            rng.random(out=out)
        rounded += draws < probability_up
        # |v| / ‖v‖ can round a hair above 1, so the top level can overflow
        # by one; nothing rounds below zero.
        np.minimum(rounded, self.levels, out=rounded)
        # Each level takes its coordinate's sign: ``copysign`` as one OR of
        # the sign bit (every level's own sign bit is clear).
        sign_bits = rounded.view(np.uint32)
        sign_bits |= blocks.view(np.uint32) & np.uint32(0x80000000)
        return norms, rounded.astype(np.int8)

    def _bucket_scales(self, norms: np.ndarray, n: int, dtype) -> np.ndarray:
        """Each coordinate's bucket value: ``norms`` (``(..., buckets)``)
        expanded with one ``np.repeat`` to ``(..., n)``."""
        size, _ = self._buckets(n)
        return np.repeat(np.asarray(norms).astype(dtype, copy=False), size,
                         axis=-1)[..., :n]

    def dequantize_bucketed(self, norms: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_quantize_rows` in float64, row- or
        matrix-shaped: ``level / levels · norm`` per coordinate."""
        values = np.divide(levels, self.levels, dtype=np.float64)
        values *= self._bucket_scales(norms, values.shape[-1], np.float64)
        return values

    def _dequantize_float32(self, norms: np.ndarray, levels: np.ndarray,
                            mean_of_one: bool = False) -> np.ndarray:
        """``dequantize_bucketed(norms, levels).astype(float32)`` as one
        float32 product ``level · (norm / levels)`` where that is the same
        value; ``mean_of_one`` adds the ``0.0`` a one-payload mean starts
        from (``0.0 + -0.0`` is ``+0.0``) before the cast.

        With ``levels`` a power of two, an integer ``level / levels`` has at
        most ``log2(levels) + 1`` significant bits, so its float64 product
        with a float32 norm is exact and the cast rounds it once.
        ``norm / levels`` is exact unless it underflows, so the float32
        ``level · (norm / levels)`` rounds that same exact value once.  An
        underflowing bucket (checked, and impossible for a norm
        :meth:`_quantize_rows` computes) or any other ``levels`` takes the
        float64 product.
        """
        norms32 = np.asarray(norms, dtype=np.float32)
        scales = norms32 / np.float32(self.levels)
        if (self.levels & (self.levels - 1) == 0
                and np.array_equal(scales * np.float32(self.levels), norms32)):
            values = levels.astype(np.float32)
            values *= self._bucket_scales(scales, values.shape[-1], np.float32)
        else:
            values = self.dequantize_bucketed(norms, levels)
        if mean_of_one:
            values += values.dtype.type(0.0)
        return values.astype(np.float32, copy=False)

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

        norms, padded = reference._quantize_rows(corrected, [c.rng for c in compressors])
        # The padded levels are contiguous, so the float32 work runs on them
        # and only its result is cut back to n coordinates.
        padded = padded.reshape(P, -1)
        if reference.error_feedback:
            # ``corrected`` is this call's own sum: it becomes the residuals.
            corrected -= reference._dequantize_float32(norms, padded)[:, :n]
            for p, compressor in enumerate(compressors):
                compressor._residual = corrected[p]

        # Payload layout: [#buckets, norms..., levels...] — levels are small
        # integers, so a real deployment would entropy-code them into ≈2.8
        # bits each.  One float64 matrix holds every rank's payload row.
        num_buckets = norms.shape[1]
        matrix = np.empty((P, 1 + num_buckets + n))
        matrix[:, 0] = num_buckets
        matrix[:, 1:1 + num_buckets] = norms
        matrix[:, 1 + num_buckets:] = padded[:, :n]
        return list(matrix), [{"n": n} for _ in range(P)]

    @classmethod
    def decompress_batch(cls, compressors: Sequence["QSGDCompressor"],
                         exchanged: Sequence, contexts: Sequence[Dict]) -> np.ndarray:
        """Every rank averages the same dequantized payloads (with rank 0's
        levels and bucket size): one row, computed once and broadcast.  The
        mean sums float64 terms."""
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

    @classmethod
    def decompress_each(cls, compressors: Sequence["QSGDCompressor"],
                        payloads: Sequence[np.ndarray], contexts: Sequence[Dict]
                        ) -> np.ndarray:
        """Every rank's own payload decoded at once: the mean of one payload
        is ``0.0`` plus its float64 dequantization, cast to float32, which
        :meth:`_dequantize_float32` computes for the whole matrix."""
        if not cls._uniform(compressors, "levels", "bucket_size"):
            return super().decompress_each(compressors, payloads, contexts)
        payloads = [np.asarray(p, dtype=np.float64) for p in payloads]
        num_buckets = int(payloads[0][0])
        # Levels are small integers: the float32 gather is exact.
        levels = np.stack([p[1 + num_buckets:] for p in payloads], dtype=np.float32)
        norms = np.stack([p[1:1 + num_buckets] for p in payloads])
        return compressors[0]._dequantize_float32(norms, levels, mean_of_one=True)

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
