"""A2SGD — two-level gradient averaging (the paper's contribution).

Algorithm 1 of the paper, per worker ``p`` and iteration ``t``:

1. compute the local gradient ``g_t``;
2. split it by sign and take the two absolute means
   ``µ_+ = E[g_i | g_i ≥ 0]`` and ``µ_- = E[|g_i| | g_i < 0]``;
3. form ``enc(g) = pos(g)·µ_+ − neg(g)·µ_-`` and keep the *local error*
   ``ε_t = g_t − enc(g_t)`` on the worker;
4. Allreduce-average only the pair ``(µ_+, µ_-)`` — 64 bits per worker,
   independent of the model size, hence O(1) communication;
5. rebuild the update gradient ``ε_t + pos(g)·µ̄_+ − neg(g)·µ̄_-`` using the
   global means ``(µ̄_+, µ̄_-)`` and the retained error.

Because the error vector is added back after synchronization, the variance of
the reconstructed gradient matches dense SGD up to the difference between the
local and global means (the ``∇µ_t`` term of Theorem 1), which is what the
paper's convergence analysis bounds.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.compress.base import Compressor, ExchangeKind, select_by_mask


class A2SGDCompressor(Compressor):
    """Two-level gradient averaging with retained local errors.

    Parameters
    ----------
    error_feedback:
        If True (the paper's algorithm), the difference between the gradient
        and its two-mean encoding is retained locally and added back after
        the global exchange.  Setting False drops the error term; this is the
        ablation DESIGN.md calls out (it degrades convergence noticeably and
        shows why the paper keeps the local errors).
    two_means:
        If True (default), use separate positive/negative means as in the
        paper.  If False, use a single signed mean — the "over-simplified"
        variant §3 argues against; kept for the ablation benchmark.
    """

    name = "a2sgd"
    exchange = ExchangeKind.ALLREDUCE
    uses_error_feedback = True

    #: Bits exchanged per worker: two float32 means.
    WIRE_BITS = 64.0

    def __init__(self, error_feedback: bool = True, two_means: bool = True):
        super().__init__()
        self.error_feedback = bool(error_feedback)
        self.two_means = bool(two_means)

    # ------------------------------------------------------------------ #
    # kernels: every rank in one call (per-rank calls are a batch of one)
    # ------------------------------------------------------------------ #
    @classmethod
    def compress_batch(cls, compressors: Sequence["A2SGDCompressor"], G: np.ndarray
                       ) -> Tuple[List[np.ndarray], List[Dict]]:
        if not cls._uniform(compressors, "error_feedback", "two_means"):
            return cls._compress_each(compressors, G)
        reference = compressors[0]
        G = np.asarray(G, dtype=np.float32)
        P, n = G.shape
        masks = G >= 0

        if reference.two_means:
            # Row-blocked kernel: each rank's row makes two passes through
            # the loops below with only row-sized temporaries, so the working
            # set per step is 2–3 rows — not the 4×(P, n) whole-matrix
            # casts/selects/subtractions this used before, which fell out of
            # L2 between passes on mid-sized models (lstm_ptb) and made the
            # batched exchange *slower* than the per-rank loop.  Each side
            # is summed directly against its own 0/1 mask: deriving the
            # negative sum as ``positive_sum - total`` looks cheaper but
            # cancels catastrophically when one side dominates, inflating µ_-
            # past ``max |g|``.
            positive_sums = np.empty(P)
            positive_counts = np.empty(P, dtype=np.int64)
            negative_sums = np.empty(P)
            # An inf entry times its 0 in the other side's mask is NaN; the
            # finiteness check below reports it, so numpy need not warn.
            with np.errstate(invalid="ignore"):
                for p in range(P):
                    mask_f32 = masks[p].astype(np.float32)
                    positive_sums[p] = float(np.dot(G[p], mask_f32))
                    # 1 − mask is exactly the (~mask) cast for 0/1 values and
                    # reuses the row buffer instead of allocating a bool inverse.
                    np.subtract(np.float32(1.0), mask_f32, out=mask_f32)
                    negative_sums[p] = -float(np.dot(G[p], mask_f32))
                    positive_counts[p] = np.count_nonzero(masks[p])
            negative_counts = n - positive_counts
            mu_plus = np.maximum(0.0, np.where(
                positive_counts > 0, positive_sums / np.maximum(positive_counts, 1), 0.0))
            mu_minus = np.maximum(0.0, np.where(
                negative_counts > 0, negative_sums / np.maximum(negative_counts, 1), 0.0))
            means = np.stack([mu_plus, mu_minus], axis=1)           # (P, 2) float64
            cls._require_finite(means)
            if reference.error_feedback:
                # Fused select + subtract + stats: the encoding is selected
                # straight into the error matrix, subtracted from G in place
                # while the row is cache-hot, and the compression-error norm
                # reads the materialized residual instead of re-deriving
                # ``G - encoded`` — no ``encoded`` temporary is ever allocated.
                errors = np.empty((P, n), dtype=np.float32)
                for p, compressor in enumerate(compressors):
                    select_by_mask(errors[p], masks[p], mu_plus[p], -mu_minus[p])
                    np.subtract(G[p], errors[p], out=errors[p])
                    denom = float(np.linalg.norm(G[p])) or 1.0
                    compressor.stats.record(
                        cls.WIRE_BITS, float(np.linalg.norm(errors[p])) / denom)
            else:
                # Ablation path (no retained error): the encoding itself is
                # the transmitted estimate the statistics need.
                encoded = np.empty((P, n), dtype=np.float32)
                for p in range(P):
                    select_by_mask(encoded[p], masks[p], mu_plus[p], -mu_minus[p])
                errors = np.zeros((P, n), dtype=np.float32)
                cls._record_batch(compressors, cls.WIRE_BITS, G, encoded)
        else:
            # Single-mean ablation: one signed mean replaces every entry.
            mu = G.mean(axis=1).astype(np.float64)
            means = np.stack([mu, np.zeros(P)], axis=1)
            cls._require_finite(means)
            encoded = np.broadcast_to(mu[:, None].astype(np.float32), (P, n))
            if reference.error_feedback:
                errors = G - encoded
            else:
                errors = np.zeros((P, n), dtype=np.float32)
            cls._record_batch(compressors, cls.WIRE_BITS, G, encoded)

        payloads: List[np.ndarray] = []
        contexts: List[Dict] = []
        # The stacked matrices — and the exact per-rank row views handed out
        # below — ride along in every context so decompress_batch can skip
        # _stack_rows' per-row pointer checks (a measurable slice of exchange
        # time at small n).  The per-rank keys stay authoritative: the fast
        # path verifies each context still holds the cached view objects, so
        # a caller that swaps in its own mask/error array falls back to the
        # general stacking path instead of being silently ignored.
        mask_rows = [masks[p] for p in range(P)]
        error_rows = [errors[p] for p in range(P)]
        stacked = (masks, errors, mask_rows, error_rows)
        for p, compressor in enumerate(compressors):
            payloads.append(means[p])
            contexts.append({"positive_mask": mask_rows[p], "error": error_rows[p],
                             "_stacked": stacked})
        return payloads, contexts

    @classmethod
    def decompress_batch(cls, compressors: Sequence["A2SGDCompressor"],
                         exchanged: Sequence, contexts: Sequence[Dict]) -> np.ndarray:
        global_means = np.stack([np.asarray(e, dtype=np.float64) for e in exchanged])
        if global_means.shape[1:] != (2,):
            raise ValueError("A2SGD expects a global payload of exactly two means")
        # Fast path: compress_batch cached its stacked mask/error matrices
        # and the per-rank row views in the contexts (one shared tuple).
        # Object-identity checks on every rank's entries confirm nothing was
        # swapped in since compression; otherwise fall back to _stack_rows
        # (still zero-copy when rows alias one matrix).
        stacked = contexts[0].get("_stacked")
        if stacked is not None and stacked[0].shape[0] == len(contexts) \
                and all(ctx.get("_stacked") is stacked
                        and ctx.get("positive_mask") is stacked[2][p]
                        and ctx.get("error") is stacked[3][p]
                        for p, ctx in enumerate(contexts)):
            masks, errors = stacked[0], stacked[1]
        else:
            masks = cls._stack_rows([ctx["positive_mask"] for ctx in contexts])
            errors = cls._stack_rows([ctx["error"] for ctx in contexts])
        reconstructed = np.empty(masks.shape, dtype=np.float32)
        # The error is added while the freshly-selected row is cache-hot (a
        # whole-matrix ``+= errors`` would re-stream every row).
        for p, compressor in enumerate(compressors):
            if compressor.two_means:
                select_by_mask(reconstructed[p], masks[p],
                               global_means[p, 0], -global_means[p, 1])
            else:
                reconstructed[p] = global_means[p, 0]
            reconstructed[p] += errors[p]
        return reconstructed

    @staticmethod
    def _require_finite(means: np.ndarray) -> None:
        """Refuse non-finite ``(P, 2)`` means, naming the ranks.

        A NaN or ±inf gradient entry makes at least one of its row's masked
        dots (or its single mean) non-finite, so this O(P) check on the means
        catches every one — where the encoding would otherwise ship NaN/inf
        means to every rank.
        """
        finite = np.isfinite(means).all(axis=1)
        if not finite.all():
            P = means.shape[0]
            bad = "; ".join(f"rank {p} of {P}: (µ₊, µ₋) = ({means[p, 0]}, {means[p, 1]})"
                            for p in np.flatnonzero(~finite))
            raise FloatingPointError(f"a2sgd: non-finite gradient means — {bad}")

    # ------------------------------------------------------------------ #
    # analytics (Table 2)
    # ------------------------------------------------------------------ #
    def wire_bits(self, n: int, world_size: int = 1) -> float:
        """64 bits regardless of model size — the O(1) headline result."""
        return self.WIRE_BITS

    def computation_complexity(self, n: int) -> str:
        """One pass to compute two means and the error vector."""
        return "O(n)"
