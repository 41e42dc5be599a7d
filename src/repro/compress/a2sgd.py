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
from repro.optim.sgd import row_blocks


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[dot(a[i], b[i]) for i]`` in one call: a stack of vector–vector
    matmuls, each the BLAS dot ``np.dot`` runs on one row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


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
        self.error_feedback = bool(error_feedback)
        self.two_means = bool(two_means)

    # ------------------------------------------------------------------ #
    # kernels: every rank in one call (per-rank calls are a batch of one)
    # ------------------------------------------------------------------ #
    # Both kernels walk the (P, n) matrix in the row blocks of
    # ``sgd_flat_update`` (``row_blocks``): whole rows while ``rows · n ≤
    # STEP_BLOCK_ELEMENTS`` (one block for every rank at small n), one row
    # per block above that.
    # Each step below is one NumPy call per block, not one per rank, and a
    # block's operands stay cache-resident across the passes.  Row dots go
    # through ``np.matmul`` on ``(rows, 1, n) @ (rows, n, 1)`` stacks, which
    # runs the same BLAS dot as a per-row ``np.dot`` — so the sums, and the
    # means, are bit-identical to the per-rank kernel.
    @classmethod
    def compress_batch(cls, compressors: Sequence["A2SGDCompressor"], G: np.ndarray
                       ) -> Tuple[List[np.ndarray], List[Dict]]:
        if not cls._uniform(compressors, "error_feedback", "two_means"):
            return cls._compress_each(compressors, G)
        reference = compressors[0]
        G = np.asarray(G, dtype=np.float32)
        P, n = G.shape
        masks = G >= 0
        blocks = row_blocks(P, n)

        if reference.two_means:
            means = cls._two_level_means(G, masks, blocks)
            if_true, if_false = means[:, 0], -means[:, 1]
        else:
            # Single-mean ablation: one signed mean replaces every entry (a
            # select whose two operands are equal is that constant).
            mu = G.mean(axis=1).astype(np.float64)
            means = np.stack([mu, np.zeros(P)], axis=1)
            if_true = if_false = mu
        cls._require_finite(means)      # before any state moves

        # The retained error ε = G − enc(G), selected and subtracted one
        # block at a time; the ablation that drops it keeps zeros.
        if reference.error_feedback:
            errors = np.empty((P, n), dtype=np.float32)
            for block in blocks:
                error = errors[block]
                select_by_mask(error, masks[block], if_true[block, None],
                               if_false[block, None])
                np.subtract(G[block], error, out=error)
        else:
            errors = np.zeros((P, n), dtype=np.float32)

        # The stacked matrices — and the exact per-rank row views handed out
        # below — ride along in every context so decompress_batch can skip
        # _stack_rows' per-row pointer checks (a measurable slice of exchange
        # time at small n).  The per-rank keys stay authoritative: the fast
        # path verifies each context still holds the cached view objects, so
        # a caller that swaps in its own mask/error array falls back to the
        # general stacking path instead of being silently ignored.
        mask_rows = list(masks)
        error_rows = list(errors)
        stacked = (masks, errors, mask_rows, error_rows)
        contexts = [{"positive_mask": mask_rows[p], "error": error_rows[p],
                     "_stacked": stacked} for p in range(P)]
        return list(means), contexts

    @staticmethod
    def _two_level_means(G: np.ndarray, masks: np.ndarray,
                         blocks: Sequence[slice]) -> np.ndarray:
        """``(µ₊, µ₋)`` of every row as a ``(P, 2)`` float64 matrix.

        Each side is summed directly against its own 0/1 mask: deriving the
        negative sum as ``positive_sum - total`` looks cheaper but cancels
        catastrophically when one side dominates, inflating µ₋ past
        ``max |g|``.  A multi-row block (``n ≤ STEP_BLOCK_ELEMENTS / 2``)
        counts its positives as the mask rows' dot with ones, exact in float32
        far beyond that ``n``; a one-row block takes the faster 1-D count.
        """
        P, n = G.shape
        sums = np.empty((P, 2))                   # (positive, |negative|) per row
        counts = np.empty((P, 2), dtype=np.int64)
        ones = np.ones(n, dtype=np.float32) if len(blocks) < P else None
        # An inf entry times its 0 in the other side's mask is NaN; the
        # caller's finiteness check reports it, so numpy need not warn.
        with np.errstate(invalid="ignore"):
            for block in blocks:
                rows = G[block]
                mask_f32 = masks[block].astype(np.float32)
                sums[block, 0] = _row_dots(rows, mask_f32)
                counts[block, 0] = np.count_nonzero(masks[block]) \
                    if len(rows) == 1 else mask_f32 @ ones
                # 1 − mask is exactly the (~mask) cast for 0/1 values and
                # reuses the block buffer instead of a bool inverse.
                np.subtract(np.float32(1.0), mask_f32, out=mask_f32)
                sums[block, 1] = -_row_dots(rows, mask_f32)
        counts[:, 1] = n - counts[:, 0]
        # An empty side has mean 0; the outer max guards rounding below 0.
        return np.maximum(0.0, np.where(counts > 0, sums / np.maximum(counts, 1), 0.0))

    @classmethod
    def decompress_batch(cls, compressors: Sequence["A2SGDCompressor"],
                         exchanged: Sequence, contexts: Sequence[Dict]) -> np.ndarray:
        global_means = np.array(exchanged, dtype=np.float64)
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
        # The global select ε + pos·µ̄₊ − neg·µ̄₋ per block; a single-mean
        # rank selects its one mean on both sides.
        if_true = global_means[:, 0]
        if_false = np.where([c.two_means for c in compressors],
                            -global_means[:, 1], if_true)
        reconstructed = np.empty(masks.shape, dtype=np.float32)
        for block in row_blocks(*masks.shape):
            select_by_mask(reconstructed[block], masks[block], if_true[block, None],
                           if_false[block, None])
            reconstructed[block] += errors[block]
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
