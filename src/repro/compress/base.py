"""Compressor interface shared by A2SGD and every baseline.

A compressor lives on one worker and participates in gradient
synchronization in three steps (mirroring §3.1 / Algorithm 1 of the paper):

1. ``compress(gradient)`` — turn the flat local gradient into the *wire
   payload* this worker contributes to the collective, plus a context dict
   holding whatever the worker must remember locally (sign masks, error
   vector, selected indices, ...).
2. The sync strategy exchanges the payloads: compressors declare whether they
   want an Allreduce (payloads averaged elementwise — Dense, A2SGD) or an
   Allgather (every worker receives every payload — Top-K, Gaussian-K, QSGD,
   whose payloads cannot be averaged on the wire).
3. ``decompress(global_payload, ctx)`` or ``decompress_gathered(payloads,
   ctx)`` — reconstruct the gradient this worker feeds to its optimizer.

Two analytic methods report the quantities in Table 2 of the paper:
``wire_bits(n)`` (communication traffic per worker per iteration) and
``computation_complexity(n)`` (asymptotic cost of the compression step).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def select_by_mask(out: np.ndarray, mask: np.ndarray, if_true: float,
                   if_false: float) -> np.ndarray:
    """Write ``where(mask, float32(if_true), float32(if_false))`` into ``out``.

    ``out`` is a caller-owned float32 array and ``mask`` a bool array of the
    same shape.  The select runs on ``out``'s ``uint32`` view — mask → 0/1,
    times ``bits(a) ^ bits(b)``, xor ``bits(b)`` — three streaming integer
    passes with no data-dependent branch, where a scalar ``np.where`` is
    branch-mispredict bound on sign-random gradients (≈ 13× slower at
    n = 200k).  Integer ops copy the two bit patterns verbatim, so the result
    is bit-exact for every float32 (NaN payloads, ±inf, ±0, subnormals —
    FTZ/DAZ does not touch integer arithmetic).  Returns ``out``.
    """
    if not isinstance(out, np.ndarray) or out.dtype != np.float32:
        raise TypeError("select_by_mask writes into a float32 ndarray, got "
                        f"{getattr(out, 'dtype', type(out).__name__)}")
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise TypeError(f"select_by_mask needs a bool mask, got {mask.dtype}")
    if mask.shape != out.shape:
        raise ValueError(f"select_by_mask: mask shape {mask.shape} does not "
                         f"match out shape {out.shape}")
    true_bits = np.float32(if_true).view(np.uint32)
    false_bits = np.float32(if_false).view(np.uint32)
    bits = out.view(np.uint32)
    np.copyto(bits, mask, casting="unsafe")
    bits *= true_bits ^ false_bits
    bits ^= false_bits
    return out


class ExchangeKind(enum.Enum):
    """How a compressor's payloads are exchanged across workers."""

    ALLREDUCE = "allreduce"
    ALLGATHER = "allgather"


@dataclass
class CompressionStats:
    """Running statistics a compressor keeps about its own behaviour."""

    iterations: int = 0
    total_wire_bits: float = 0.0
    last_wire_bits: float = 0.0
    last_compression_error: float = 0.0

    def record(self, wire_bits: float, compression_error: float) -> None:
        self.iterations += 1
        self.total_wire_bits += float(wire_bits)
        self.last_wire_bits = float(wire_bits)
        self.last_compression_error = float(compression_error)


class Compressor:
    """Base class for gradient compressors.

    Subclasses must set :attr:`name` and :attr:`exchange`, and implement
    :meth:`compress`, one of the decompress methods, :meth:`wire_bits` and
    :meth:`computation_complexity`.
    """

    #: Registry / display name.
    name: str = "base"
    #: Which collective the sync strategy should run for this compressor.
    exchange: ExchangeKind = ExchangeKind.ALLREDUCE
    #: Whether the compressor keeps a persistent residual across iterations.
    uses_error_feedback: bool = False
    #: For Allgather compressors: True when ``decompress_gathered`` depends
    #: only on the gathered payloads and a rank-invariant context (the usual
    #: case — every rank reconstructs the same averaged gradient), letting
    #: ``decompress_batch`` compute one rank and broadcast the row.
    gathered_rank_invariant: bool = False

    def __init__(self) -> None:
        self.stats = CompressionStats()

    # ------------------------------------------------------------------ #
    # core protocol
    # ------------------------------------------------------------------ #
    def compress(self, gradient: np.ndarray) -> Tuple[np.ndarray, Dict]:
        """Compress a flat gradient into (wire payload, local context)."""
        raise NotImplementedError

    def decompress(self, global_payload: np.ndarray, ctx: Dict) -> np.ndarray:
        """Reconstruct the update gradient from an Allreduce result."""
        raise NotImplementedError

    def decompress_gathered(self, payloads: Sequence[np.ndarray], ctx: Dict) -> np.ndarray:
        """Reconstruct the update gradient from Allgather results."""
        raise NotImplementedError

    def reset_state(self) -> None:
        """Clear any persistent state (error-feedback memory, statistics)."""
        self.stats = CompressionStats()

    # ------------------------------------------------------------------ #
    # batched protocol (one call per iteration instead of one per rank)
    # ------------------------------------------------------------------ #
    @classmethod
    def compress_batch(cls, compressors: Sequence["Compressor"], G: np.ndarray
                       ) -> Tuple[List[np.ndarray], List[Dict]]:
        """Compress the stacked ``(world_size, n)`` gradient matrix.

        Row ``p`` of ``G`` is rank ``p``'s flat gradient and ``compressors[p]``
        is that rank's instance (per-rank error-feedback state lives on the
        instances exactly as in the looped path).  Returns the per-rank
        payloads and contexts, bit-identical to calling ``compress`` rank by
        rank.  This default *is* that loop; subclasses override it with
        vectorized kernels.
        """
        payloads: List[np.ndarray] = []
        contexts: List[Dict] = []
        for compressor, row in zip(compressors, np.asarray(G)):
            payload, ctx = compressor.compress(row)
            payloads.append(payload)
            contexts.append(ctx)
        return payloads, contexts

    @classmethod
    def decompress_batch(cls, compressors: Sequence["Compressor"],
                         exchanged: Sequence, contexts: Sequence[Dict]) -> np.ndarray:
        """Reconstruct every rank's update as one ``(world_size, n)`` matrix.

        ``exchanged[p]`` is rank ``p``'s collective result (the reduced
        payload for Allreduce, the payload list for Allgather).  Rows are
        bit-identical to the per-rank ``decompress``/``decompress_gathered``
        loop.  When ``gathered_rank_invariant`` is set the Allgather
        reconstruction is computed once and broadcast, turning the seed's
        O(P²·n) reconstruction into O(P·n); the returned matrix may then be a
        read-only broadcast view.
        """
        if cls.exchange is ExchangeKind.ALLGATHER:
            if cls.gathered_rank_invariant:
                row = np.asarray(compressors[0].decompress_gathered(
                    exchanged[0], contexts[0]), dtype=np.float32)
                return np.broadcast_to(row, (len(compressors), row.size))
            rows = [np.asarray(c.decompress_gathered(e, ctx), dtype=np.float32)
                    for c, e, ctx in zip(compressors, exchanged, contexts)]
        else:
            rows = [np.asarray(c.decompress(e, ctx), dtype=np.float32)
                    for c, e, ctx in zip(compressors, exchanged, contexts)]
        return np.stack(rows)

    @staticmethod
    def _stack_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
        """Stack per-rank vectors into a matrix, zero-copy when the rows are
        already consecutive rows of one shared matrix (the common case after a
        batched compress)."""
        first = rows[0]
        base = first.base if isinstance(first, np.ndarray) else None
        if (base is not None and base.ndim == 2 and base.shape[0] == len(rows)
                and all(isinstance(r, np.ndarray) and r.base is base
                        and r.shape == base.shape[1:]
                        and r.ctypes.data == base.ctypes.data + p * base.strides[0]
                        for p, r in enumerate(rows))):
            return base
        return np.stack(rows)

    @staticmethod
    def _stack_state(compressors: Sequence["Compressor"], attr: str, P: int, n: int,
                     dtype=np.float32) -> np.ndarray:
        """Gather a per-rank state vector (e.g. ``_residual``) into ``(P, n)``.

        Zero rows stand in for missing/mismatched state, mirroring the lazy
        initialization of the looped path.  When every rank's state is already
        a row view of one shared ``(P, n)`` matrix — which is how the batched
        kernels write state back — that matrix is returned without copying.
        """
        rows = [getattr(c, attr, None) for c in compressors]
        base = rows[0].base if isinstance(rows[0], np.ndarray) else None
        if (base is not None and base.shape == (P, n) and base.dtype == np.dtype(dtype)
                and all(isinstance(r, np.ndarray) and r.base is base
                        and r.shape == (n,)
                        and r.ctypes.data == base.ctypes.data + p * base.strides[0]
                        for p, r in enumerate(rows))):
            return base
        M = np.zeros((P, n), dtype=dtype)
        for p, r in enumerate(rows):
            if isinstance(r, np.ndarray) and r.shape == (n,):
                M[p] = r
        return M

    def contraction_problem(self) -> Optional[str]:
        """Why this configuration is not provably contractive, or None.

        Error-feedback recursions (and the parameter-delta codec built on
        them, see :mod:`repro.compress.param_delta`) require a *contractive*
        compressor — ``E‖v − C(v)‖² ≤ (1 − δ)‖v‖²`` with ``δ > 0`` — or the
        residual amplifies instead of draining.  The sparsifiers are
        contractive by construction, so the base returns None; quantizers
        whose error bound can exceed the input norm override this with the
        configured-instance check.
        """
        return None

    # ------------------------------------------------------------------ #
    # analytic properties (Table 2)
    # ------------------------------------------------------------------ #
    def wire_bits(self, n: int, world_size: int = 1) -> float:
        """Bits this worker puts on the wire per iteration for an n-parameter model."""
        raise NotImplementedError

    def computation_complexity(self, n: int) -> str:
        """Asymptotic compression cost as reported in Table 2 (e.g. ``"O(n)"``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _flatten(gradient: np.ndarray) -> np.ndarray:
        gradient = np.asarray(gradient)
        if gradient.ndim != 1:
            raise ValueError("compressors operate on flat (1-D) gradient vectors")
        return gradient

    def _record(self, wire_bits: float, original: np.ndarray,
                transmitted_estimate: np.ndarray) -> None:
        """Track wire traffic and the relative compression error."""
        denom = float(np.linalg.norm(original)) or 1.0
        error = float(np.linalg.norm(original - transmitted_estimate)) / denom
        self.stats.record(wire_bits, error)

    @staticmethod
    def _record_batch(compressors: Sequence["Compressor"], wire_bits: float,
                      originals: np.ndarray, transmitted: np.ndarray) -> None:
        """Per-rank statistics for a batched compress.

        Row-wise BLAS norms, exactly as the looped ``_record`` computes them —
        bit-identical stats, and faster than the float64 matrix ``einsum``
        reductions this used before (those upcast every element and turned the
        stats pass into a measurable fraction of ``exchange_ms`` on larger
        models).
        """
        for compressor, original, estimate in zip(compressors, originals, transmitted):
            denom = float(np.linalg.norm(original)) or 1.0
            error = float(np.linalg.norm(original - estimate)) / denom
            compressor.stats.record(wire_bits, error)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r}, exchange={self.exchange.value})"


def compressor_state_arrays(compressor: Compressor) -> Dict[str, np.ndarray]:
    """The compressor's persistent per-rank state (error-feedback residual,
    DGC velocity), keyed by kind — the single source of truth for
    checkpointing, shared by the trainer checkpoint and the parameter-delta
    codec."""
    state: Dict[str, np.ndarray] = {}
    for kind in ("residual", "velocity"):
        value = getattr(compressor, f"_{kind}", None)
        if value is not None:
            state[kind] = value
    return state


def restore_compressor_state(compressor: Compressor,
                             state: Dict[str, np.ndarray]) -> None:
    """Inverse of :func:`compressor_state_arrays` (missing kinds are left
    as-is).  Writes in place when shape/dtype match so state that aliases a
    shared ``(P, n)`` matrix (rows written by the batched kernels) keeps its
    zero-copy home."""
    for kind in ("residual", "velocity"):
        if kind not in state:
            continue
        attr = f"_{kind}"
        current = getattr(compressor, attr, None)
        value = state[kind]
        if (isinstance(current, np.ndarray) and current.shape == value.shape
                and current.dtype == value.dtype):
            current[...] = value
        else:
            setattr(compressor, attr, np.array(value, copy=True))


def sparsity_k(n: int, ratio: float, minimum: int = 1) -> int:
    """Number of retained coordinates for a sparsification ratio.

    The paper uses "0.001d" (0.1 % of the parameters) for Top-K and
    Gaussian-K; this helper centralises the rounding so every sparsifier and
    the cost model agree on ``k``.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("sparsification ratio must be in (0, 1]")
    return max(minimum, int(round(ratio * n)))
