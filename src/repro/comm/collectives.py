"""Collective communication algorithms over per-rank buffers.

Each function takes the list of contributions indexed by rank (the state of
the whole simulated world), produces the per-rank results, and returns a
:class:`CollectiveTrace` describing the byte/round structure of the algorithm
actually executed.  The trace — not the Python execution time — is what the
α–β model prices, so the simulated communication cost reflects the collective
algorithm rather than NumPy overheads.

The ring Allreduce is implemented as a genuine reduce-scatter + allgather over
chunks (not a shortcut ``sum``), so tests can verify both the numerics and the
step structure that the paper's timing analysis relies on.

Allgather and the neighbour exchange distribute their results through a
shared read-only staging buffer: each contributor's payload is copied once and every rank
receives views of the same storage (as on a real fabric, where a payload is
serialized once).  This cuts the per-exchange memcopy of payload-gathering
algorithms from O(P²·n) to O(P·n) without touching the traces the network
model prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.backend import CollectiveOp


@dataclass
class CollectiveTrace:
    """Record of one collective execution.

    Attributes
    ----------
    kind:
        Collective name understood by the network model.
    message_bytes:
        Size of the logical payload per rank (what each rank contributes).
    bytes_sent_per_rank:
        Bytes each rank actually put on the wire under the chosen algorithm.
    rounds:
        Number of communication rounds on the critical path.
    world_size:
        Number of participating ranks.
    simulated_time_s:
        The α–β price of this execution, set when a world records the trace
        (``None`` before).  A caller prices its collective from this value,
        never from a difference of running totals.
    """

    kind: str
    message_bytes: float
    bytes_sent_per_rank: float
    rounds: int
    world_size: int
    simulated_time_s: Optional[float] = None


def _stage_read_only(payload: np.ndarray) -> np.ndarray:
    """One staging copy of a contributor's payload, shared by every rank.

    The seed collectives handed each rank its own private copy of every
    payload — O(P²·n) memcopy per Allgather.  A real network writes each
    contribution onto the wire once; this staging buffer mirrors that: one
    contiguous copy per contributor, marked read-only so the views handed to
    all ranks cannot alias-corrupt each other, cutting the exchange memcopy
    to O(P·n).
    """
    staged = np.array(payload, copy=True)
    staged.setflags(write=False)
    return staged


def _stage_ragged_payloads(buffers: Sequence[np.ndarray], collective: str
                           ) -> tuple[List[np.ndarray], float]:
    """Validate + stage possibly ragged per-rank payloads for gathering.

    Payload lengths may differ across ranks (sparse compressors select a
    different number of coordinates per worker), but every payload must
    share one dtype — validated up front with the offending ranks named,
    instead of failing deep inside a downstream concatenation.  Each
    payload is staged once into a shared read-only buffer; the returned
    mean byte size is what gather-style traces report as the message size.
    """
    arrays = [np.asarray(b) for b in buffers]
    if not arrays:
        raise ValueError("collective called with no participants")
    dtypes = [a.dtype for a in arrays]
    if len(set(dtypes)) > 1:
        offenders = ", ".join(f"rank {rank}: {dtype}" for rank, dtype in enumerate(dtypes))
        raise ValueError(
            f"{collective} requires every rank's payload to share one dtype, "
            f"got {offenders}; cast the payloads to a common dtype before the collective")
    mean_bytes = float(np.mean([a.nbytes for a in arrays]))
    return [_stage_read_only(a) for a in arrays], mean_bytes


def _as_float_arrays(buffers: Sequence[np.ndarray]) -> List[np.ndarray]:
    arrays = [np.asarray(b) for b in buffers]
    if not arrays:
        raise ValueError("collective called with no participants")
    shape = arrays[0].shape
    for a in arrays:
        if a.shape != shape:
            raise ValueError(f"all contributions must share a shape; got {a.shape} vs {shape}")
    return arrays


@lru_cache(maxsize=64)
def _ring_chunks(p: int, n: int) -> Tuple[Tuple[int, int, int], ...]:
    """The ring allreduce's plan: ``(c, start, stop)`` for every non-empty
    chunk ``c`` of an ``n``-element buffer over ``p`` ranks.

    Chunk ``c`` spans ``[bounds[c], bounds[c + 1])`` of
    ``linspace(0, n, p + 1)`` (the last chunk absorbs the remainder; when
    ``n < p`` some chunks are empty).  A pure function of ``(p, n)`` holding
    O(p) integers, so it is computed once per shape and reused.
    """
    bounds = np.linspace(0, n, p + 1, dtype=np.int64).tolist()
    return tuple((c, bounds[c], bounds[c + 1]) for c in range(p)
                 if bounds[c + 1] > bounds[c])


def allreduce_ring(buffers: Sequence[np.ndarray],
                   op: CollectiveOp = CollectiveOp.MEAN) -> tuple[List[np.ndarray], CollectiveTrace]:
    """Bandwidth-optimal ring allreduce (reduce-scatter phase + allgather phase).

    Every rank splits its buffer into P chunks.  During the reduce-scatter
    phase, chunk ``c`` travels around the ring starting at rank ``c``,
    accumulating one rank's contribution per hop; during the allgather phase
    the finished chunks circulate back.  Each rank transmits ``2 (P-1)/P`` of
    the buffer in total.

    The reduction is evaluated as a vectorized fold in the exact per-element
    addition order of a chunk-by-chunk ring: element ``j`` of chunk ``c``
    accumulates ranks ``c, c+1, …, c+P-1 (mod P)``.  Each chunk's columns are
    copied into a ``(P, n)`` float64 matrix with the rank rows rotated by
    ``c`` (two slice copies per chunk), so hop ``s`` of every chunk is row
    ``s`` and the fold is ``P − 1`` whole-row additions.  The chunk plan
    (:func:`_ring_chunks`) is cached per ``(P, n)``.  The allgather phase is
    pure copying and contributes no arithmetic.
    """
    arrays = _as_float_arrays(buffers)
    p = len(arrays)
    original_shape = arrays[0].shape
    nbytes = float(arrays[0].nbytes)
    flat = np.array(arrays).reshape(p, -1)
    n = flat.shape[1]

    if p == 1:
        flat = flat.astype(np.float64)
        result = flat[0] if op is not CollectiveOp.MEAN else flat[0] / 1.0
        out = [result.reshape(original_shape).astype(arrays[0].dtype)]
        return out, CollectiveTrace("allreduce_ring", nbytes, 0.0, 0, 1)

    # hops[s, j] is the contribution element j receives at hop s: rank
    # (c + s) mod p for the chunk c that owns it.
    hops = np.empty((p, n), dtype=np.float64)
    for c, start, stop in _ring_chunks(p, n):
        hops[:p - c, start:stop] = flat[c:, start:stop]
        hops[p - c:, start:stop] = flat[:c, start:stop]
    del flat        # peak memory: the float64 hops, then the results only
    reduced = hops[0]
    for step in range(1, p):
        if op is CollectiveOp.MAX:
            np.maximum(reduced, hops[step], out=reduced)
        else:
            reduced += hops[step]
    if op is CollectiveOp.MEAN:
        reduced = reduced / p

    # Every rank gets its own copy (rows of one matrix, cast once).
    results = np.empty((p, n), dtype=arrays[0].dtype)
    results[...] = reduced
    results = list(results.reshape((p,) + original_shape))
    trace = CollectiveTrace(kind="allreduce_ring", message_bytes=nbytes,
                            bytes_sent_per_rank=2.0 * (p - 1) / p * nbytes,
                            rounds=2 * (p - 1), world_size=p)
    return results, trace


def allgather(buffers: Sequence[np.ndarray]) -> tuple[List[List[np.ndarray]], CollectiveTrace]:
    """Ring allgather: every rank ends with the list of all contributions.

    Contributions may have different lengths (an "allgatherv"), which sparse
    compressors such as Gaussian-K need because each worker selects a
    different number of coordinates — but every payload must share one dtype
    (validated up front with the offending ranks named, instead of failing
    deep inside a downstream concatenation).  The trace reports the *average*
    per-rank contribution as the message size; in a ring allgather each rank
    forwards every other rank's contribution exactly once, so it sends
    ``(P-1) × average`` bytes.

    Each contribution is staged **once** into a shared read-only buffer and
    every rank receives views of the same staging storage (O(P·n) memcopy per
    exchange instead of the seed's copy-per-rank O(P²·n)); the trace's byte
    accounting still describes the modelled ring traffic, unchanged.
    """
    staged, mean_bytes = _stage_ragged_payloads(buffers, "allgather")
    p = len(staged)
    gathered = [list(staged) for _ in range(p)]
    trace = CollectiveTrace(kind="allgather", message_bytes=mean_bytes,
                            bytes_sent_per_rank=(p - 1) * mean_bytes if p > 1 else 0.0,
                            rounds=max(0, p - 1), world_size=p)
    return gathered, trace


def neighbor_exchange(buffers: Sequence[np.ndarray], topology,
                      alive: Sequence[bool]
                      ) -> tuple[List[List[np.ndarray]], CollectiveTrace]:
    """Sparse allgather over a :class:`~repro.comm.topology.CommTopology` graph.

    Rank ``r``'s result is the list of contributions of its *closed
    neighbourhood* (itself plus its graph neighbours) under the ``alive``
    mask, in ascending rank order — the averaging set of one gossip step.
    Each contribution is staged once into a shared read-only buffer exactly
    like :func:`allgather`, so neighbours receive views, not copies.  Dead
    ranks contribute nothing (their entry of ``buffers`` is never read and
    may be ``None``) and receive an empty list; the graph routes around
    them (:meth:`~repro.comm.topology.CommTopology.neighbors` — rings walk
    past dead hops, a dead star hub is replaced by the lowest survivor).

    Contributions may have different lengths (an "allgatherv" over the
    graph): compressed parameter payloads — Gaussian-K deltas in
    particular — select a different number of coordinates per rank.  Every
    payload must share one dtype (validated up front with the offending
    ranks named).  The trace reports the *average* contribution as the
    message size, so callers that price a compressed exchange pass the
    analytic payload size via ``logical_bytes``.

    The trace models one send per edge endpoint: a rank with degree ``d``
    puts ``d`` copies of its payload on the wire, and the critical path is
    the maximum degree over the survivors (a rank's NIC serializes its
    sends), which is what the α–β model prices.  This is how the graph
    "drives the network cost": a ring costs 2 rounds for any ``P >= 3`` (1
    at ``P = 2``) while the star's hub pays ``P - 1``.
    """
    p = len(buffers)
    topology.validate(p)
    survivors = [rank for rank in range(p) if alive[rank]]
    staged, mean_bytes = _stage_ragged_payloads(
        [buffers[rank] for rank in survivors], "neighbor_exchange")
    by_rank = dict(zip(survivors, staged))
    gathered = [[by_rank[q] for q in topology.closed_neighborhood(r, p, alive)]
                if alive[r] else [] for r in range(p)]
    trace = CollectiveTrace(kind="neighbor_exchange", message_bytes=mean_bytes,
                            bytes_sent_per_rank=topology.mean_degree(p, alive) * mean_bytes,
                            rounds=topology.max_degree(p, alive),
                            world_size=len(survivors))
    return gathered, trace
