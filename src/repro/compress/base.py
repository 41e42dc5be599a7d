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

Each step is written once per compressor, as a kernel over every rank at
once: ``compress_batch`` takes the stacked ``(world_size, n)`` gradient
matrix and ``decompress_batch`` returns the ``(world_size, n)``
reconstruction.  The per-rank methods above are defined here, on the base
class, as a batch of one.

Two analytic methods report the quantities in Table 2 of the paper:
``wire_bits(n)`` (communication traffic per worker per iteration) and
``computation_complexity(n)`` (asymptotic cost of the compression step).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import generator_state, set_generator_state


def select_by_mask(out: np.ndarray, mask: np.ndarray, if_true, if_false) -> np.ndarray:
    """Write ``where(mask, float32(if_true), float32(if_false))`` into ``out``.

    ``out`` is a caller-owned float32 array and ``mask`` a bool array of the
    same shape.  ``if_true`` / ``if_false`` are scalars, or arrays that
    broadcast against ``out`` — a ``(rows, 1)`` column selects per row, so
    one call serves a whole block of ranks.  The select runs on ``out``'s
    ``uint32`` view — mask → 0/1, times ``bits(a) ^ bits(b)``, xor
    ``bits(b)`` — three streaming integer passes with no data-dependent
    branch, where a scalar ``np.where`` is branch-mispredict bound on
    sign-random gradients (≈ 13× slower at n = 200k).  Integer ops copy the
    two bit patterns verbatim, so the result is bit-exact for every float32
    (NaN payloads, ±inf, ±0, subnormals — FTZ/DAZ does not touch integer
    arithmetic).  Returns ``out``.
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
    true_bits = np.asarray(if_true, dtype=np.float32).view(np.uint32)
    false_bits = np.asarray(if_false, dtype=np.float32).view(np.uint32)
    bits = out.view(np.uint32)
    np.copyto(bits, mask, casting="unsafe")
    bits *= true_bits ^ false_bits
    bits ^= false_bits
    return out


def scaled_payloads_mean(payloads: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Float32 mean of ``scale · v`` over ``[scale, v_1, ..., v_n]`` payloads
    — the gathered reconstruction of TernGrad and SignSGD."""
    total = np.zeros(n, dtype=np.float64)
    for payload in payloads:
        payload = np.asarray(payload, dtype=np.float64)
        total += payload[0] * payload[1:]
    return (total / len(payloads)).astype(np.float32)


class ExchangeKind(enum.Enum):
    """How a compressor's payloads are exchanged across workers."""

    ALLREDUCE = "allreduce"
    ALLGATHER = "allgather"


class Compressor:
    """Base class for gradient compressors.

    Subclasses must set :attr:`name` and :attr:`exchange`, and implement the
    two batch kernels :meth:`compress_batch` and :meth:`decompress_batch`,
    :meth:`wire_bits` and :meth:`computation_complexity`.  The per-rank
    :meth:`compress` / :meth:`decompress` / :meth:`decompress_gathered` come
    from this class.
    """

    #: Registry / display name.
    name: str = "base"
    #: Which collective the sync strategy should run for this compressor.
    exchange: ExchangeKind = ExchangeKind.ALLREDUCE
    #: Whether the compressor keeps a persistent residual across iterations.
    uses_error_feedback: bool = False

    # ------------------------------------------------------------------ #
    # per-rank protocol: the batch kernels on a batch of one
    # ------------------------------------------------------------------ #
    def compress(self, gradient: np.ndarray) -> Tuple[np.ndarray, Dict]:
        """Compress a flat gradient into (wire payload, local context)."""
        payloads, contexts = type(self).compress_batch(
            [self], self._flatten(gradient)[None, :])
        return payloads[0], contexts[0]

    def decompress(self, global_payload: np.ndarray, ctx: Dict) -> np.ndarray:
        """Reconstruct the update gradient from an Allreduce result."""
        return type(self).decompress_batch(
            [self], [self._flatten(global_payload)], [ctx])[0]

    def decompress_gathered(self, payloads: Sequence[np.ndarray], ctx: Dict) -> np.ndarray:
        """Reconstruct the update gradient from Allgather results (the row
        may be a read-only view)."""
        return type(self).decompress_batch(
            [self], [[self._flatten(p) for p in payloads]], [ctx])[0]

    def reset_state(self) -> None:
        """Clear any persistent state (error-feedback memory)."""

    # ------------------------------------------------------------------ #
    # batch kernels (one call per iteration instead of one per rank)
    # ------------------------------------------------------------------ #
    @classmethod
    def compress_batch(cls, compressors: Sequence["Compressor"], G: np.ndarray
                       ) -> Tuple[List[np.ndarray], List[Dict]]:
        """Compress the stacked ``(world_size, n)`` gradient matrix.

        Row ``p`` of ``G`` is rank ``p``'s flat gradient and ``compressors[p]``
        is that rank's instance (per-rank error-feedback state and RNG
        streams live on the instances).  Returns the per-rank payloads and
        contexts.
        """
        raise NotImplementedError(f"{cls.__name__} does not implement compress_batch")

    @classmethod
    def decompress_batch(cls, compressors: Sequence["Compressor"],
                         exchanged: Sequence, contexts: Sequence[Dict]) -> np.ndarray:
        """Reconstruct every rank's update as one ``(world_size, n)`` matrix.

        ``exchanged[p]`` is rank ``p``'s collective result (the reduced
        payload for Allreduce, the payload list for Allgather).  Allgather
        reconstructions are rank-invariant, so the kernels compute rank 0's
        row once and return a read-only ``(world_size, n)`` broadcast of it.
        """
        raise NotImplementedError(f"{cls.__name__} does not implement decompress_batch")

    @classmethod
    def decompress_each(cls, compressors: Sequence["Compressor"],
                        payloads: Sequence[np.ndarray], contexts: Sequence[Dict]
                        ) -> np.ndarray:
        """Decode every rank's *own* payload as one float32 ``(P, n)`` matrix.

        Row ``p`` is what ``payloads[p]`` alone reconstructs to: an
        allreduce-kind payload decompressed directly, an allgather-kind one
        as the mean of a gathered list of one.  This is the parameter-delta
        codec's decode.  The base runs one batch of one per rank; a kernel
        that decodes the whole matrix overrides it.
        """
        rows = []
        for compressor, payload, ctx in zip(compressors, payloads, contexts):
            if compressor.exchange is ExchangeKind.ALLREDUCE:
                row = compressor.decompress(payload, ctx)
            else:
                row = compressor.decompress_gathered([payload], ctx)
            rows.append(np.asarray(row, dtype=np.float32))
        return np.stack(rows)

    @staticmethod
    def _uniform(compressors: Sequence["Compressor"], *attrs: str) -> bool:
        """Whether every rank shares the configuration ``attrs`` — the
        precondition of a kernel that runs all rows with rank 0's settings."""
        first = compressors[0]
        return all(getattr(c, attr) == getattr(first, attr)
                   for c in compressors[1:] for attr in attrs)

    @classmethod
    def _compress_each(cls, compressors: Sequence["Compressor"], G: np.ndarray
                       ) -> Tuple[List[np.ndarray], List[Dict]]:
        """``compress_batch`` as one batch of one per rank: the path for a
        batch whose ranks are configured differently."""
        payloads: List[np.ndarray] = []
        contexts: List[Dict] = []
        for p, compressor in enumerate(compressors):
            (payload,), (ctx,) = cls.compress_batch([compressor], G[p:p + 1])
            payloads.append(payload)
            contexts.append(ctx)
        return payloads, contexts

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

        Zero rows stand in for missing/mismatched state: a rank's state
        starts at zero on its first compress.  When every rank's state is
        already a row view of one shared ``(P, n)`` matrix — which is how the
        batched kernels write state back — that matrix is returned without
        copying.
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

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r}, exchange={self.exchange.value})"


#: The kinds of persistent per-rank state a compressor may hold: vectors
#: (error-feedback residual, DGC velocity) and its generator's words.
COMPRESSOR_STATE_KINDS = ("residual", "velocity", "rng")


def compressor_state_arrays(compressor: Compressor) -> Dict[str, np.ndarray]:
    """The compressor's persistent per-rank state (error-feedback residual,
    DGC velocity, the state of its ``rng``), keyed by kind — the single
    source of truth for checkpointing, shared by the trainer checkpoint and
    the parameter-delta codec."""
    state: Dict[str, np.ndarray] = {}
    for kind in ("residual", "velocity"):
        value = getattr(compressor, f"_{kind}", None)
        if value is not None:
            state[kind] = value
    rng = getattr(compressor, "rng", None)
    if rng is not None:
        state["rng"] = generator_state(rng)
    return state


def restore_compressor_state(compressor: Compressor,
                             state: Dict[str, np.ndarray]) -> None:
    """Inverse of :func:`compressor_state_arrays` (missing kinds are left
    as-is).  Writes in place when shape/dtype match so state that aliases a
    shared ``(P, n)`` matrix (rows written by the batched kernels) keeps its
    zero-copy home."""
    if "rng" in state:
        set_generator_state(compressor.rng, state["rng"])
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


#: Every 64th entry: ≈ 3 k samples at paper size, drawn with no RNG.
TOP_K_SAMPLE_STRIDE = 64
#: Aim at ≈ 4k candidates: rarely fewer than k, and their partition stays O(k).
TOP_K_OVERSAMPLING = 4
#: Measured break-even: below 8 k entries one full introselect is faster (4 vs 10 µs at 1 k).
TOP_K_MIN_SAMPLED_ROW = 8192


def top_k_indices(magnitudes: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries of a 1-D row, unordered: always
    the index set of ``np.argpartition(magnitudes, -k)[-k:]`` (NaN ranks
    above +inf, as there).

    A floor from a strided sample of the row (its ≈ 4k·m/n-th largest of m
    sampled values) keeps the candidates ``~(magnitudes < floor)``, NaN
    included, and only they are partitioned.  With at least k candidates
    every top-k entry is among them: an entry left out lies below the floor,
    under k candidates that all outrank it.  Short rows, a floor that keeps
    fewer than k candidates and a tie at the k-th value partition the whole
    row: at a tie the full row's own partition decides which tied entries
    are kept, and every entry outside the candidates is below the tie.
    """
    n = magnitudes.size
    if n >= TOP_K_MIN_SAMPLED_ROW:
        sample = magnitudes[::TOP_K_SAMPLE_STRIDE]
        m = sample.size
        rank = -(-TOP_K_OVERSAMPLING * k * m // n)
        if rank < m:
            floor = np.partition(sample, m - rank)[m - rank]
            candidates = np.flatnonzero(~(magnitudes < floor))
            if candidates.size >= k:
                values = magnitudes[candidates]
                order = np.argpartition(values, -k)
                if np.all(values[order[:-k]] < values[order[-k]]):
                    return candidates[order[-k:]]
    return np.argpartition(magnitudes, -k)[-k:]
