"""In-process multi-worker communication world.

The reproduction simulates ``P`` data-parallel workers inside one Python
process.  Workers execute in lockstep: the trainer runs each rank's compute
phase, collects the per-rank buffers, and hands them to the world's
collective operations.  The collectives perform the *real* data movement
semantics (see :mod:`repro.comm.collectives`) and the world converts each
collective's trace into simulated wall-clock time using the α–β network
model, accumulating per-rank traffic statistics along the way.

This mirrors what Horovod + MPI give the paper's implementation: correct
collective results plus a communication cost determined by message sizes and
the fabric, not by Python overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.comm.backend import CollectiveOp
from repro.comm.collectives import (
    CollectiveTrace,
    _stage_ragged_payloads,
    allgather as _allgather,
    allreduce_naive,
    allreduce_ring,
    broadcast as _broadcast,
    neighbor_exchange as _neighbor_exchange,
    reduce_scatter as _reduce_scatter,
)
from repro.comm.network_model import CollectiveTimeModel, NetworkModel, infiniband_100gbps


@dataclass
class WorldStats:
    """Accounting of communication performed through a world."""

    collective_counts: Dict[str, int] = field(default_factory=dict)
    bytes_sent_per_rank: float = 0.0
    logical_payload_bytes: float = 0.0
    simulated_time_s: float = 0.0

    def add(self, trace: CollectiveTrace, simulated_time: float) -> None:
        self.collective_counts[trace.kind] = self.collective_counts.get(trace.kind, 0) + 1
        self.bytes_sent_per_rank += trace.bytes_sent_per_rank
        self.logical_payload_bytes += trace.message_bytes
        self.simulated_time_s += simulated_time

    def reset(self) -> None:
        self.collective_counts.clear()
        self.bytes_sent_per_rank = 0.0
        self.logical_payload_bytes = 0.0
        self.simulated_time_s = 0.0


class InProcessWorld:
    """A simulated world of ``world_size`` lockstep workers.

    Parameters
    ----------
    world_size:
        Number of simulated workers (the paper evaluates 2, 4, 8 and 16).
    network:
        The fabric model used to price collectives; defaults to the paper's
        100 Gbps InfiniBand.
    use_ring_allreduce:
        If True (default) dense allreduces use the ring algorithm; otherwise
        the naive gather+broadcast reference implementation.
    """

    def __init__(self, world_size: int, network: Optional[NetworkModel] = None,
                 use_ring_allreduce: bool = True):
        if world_size < 1:
            raise ValueError("world size must be at least 1")
        self.world_size = int(world_size)
        self.network = network if network is not None else infiniband_100gbps()
        self.time_model = CollectiveTimeModel(self.network)
        self.use_ring_allreduce = bool(use_ring_allreduce)
        self.stats = WorldStats()
        self.last_trace: Optional[CollectiveTrace] = None
        #: Live membership mask (a :class:`repro.faults.membership.Membership`,
        #: installed by the trainer's fault injector).  ``None`` — the default
        #: — means a healthy static world and keeps every collective on the
        #: exact pre-fault code path.
        self.membership = None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _check(self, buffers: Sequence[np.ndarray]) -> None:
        if len(buffers) != self.world_size:
            raise ValueError(f"expected {self.world_size} contributions, got {len(buffers)}")

    def _alive(self) -> Optional[np.ndarray]:
        """Participating ranks under the membership mask, or ``None`` for the
        all-alive fast path.  Callers always pass full ``world_size`` buffer
        lists; dead ranks' entries are ignored (they may be ``None``), and
        dead ranks receive their own contribution back (or an empty gather),
        so reductions renormalize over the survivors automatically."""
        membership = self.membership
        if membership is None or membership.all_alive:
            return None
        alive = membership.alive_ranks()
        if not alive.size:
            raise RuntimeError("collective called with every rank dead")
        return alive

    def _record(self, trace: CollectiveTrace, logical_bytes: Optional[float] = None) -> float:
        """Price a collective trace and add it to the world statistics.

        ``logical_bytes`` overrides the payload size used for pricing.  The
        simulated workers exchange float32/float64 NumPy arrays for numerical
        fidelity, but several compressors would use a denser wire encoding in
        a real deployment (e.g. QSGD packs ≈2.8 bits per coordinate, Top-K
        sends 32-bit values).  The caller passes the analytic wire size so the
        priced traffic matches Table 2 of the paper.
        """
        if logical_bytes is not None and trace.message_bytes > 0:
            scale = float(logical_bytes) / trace.message_bytes
            trace.message_bytes = float(logical_bytes)
            trace.bytes_sent_per_rank *= scale
        if trace.kind == "neighbor_exchange":
            # The graph's degree structure (trace.rounds = max degree), not
            # the world size, sets the critical path of a gossip exchange.
            simulated = self.time_model.neighbor_exchange(trace.message_bytes, trace.rounds)
        else:
            simulated = self.time_model.collective_time(
                "allreduce" if trace.kind.startswith("allreduce") else trace.kind,
                trace.message_bytes, trace.world_size)
        trace.simulated_time_s = simulated
        self.stats.add(trace, simulated)
        self.last_trace = trace
        return simulated

    # ------------------------------------------------------------------ #
    # collectives (world-level: one contribution per rank, in rank order)
    # ------------------------------------------------------------------ #
    def allreduce(self, buffers: Sequence[np.ndarray],
                  op: CollectiveOp = CollectiveOp.MEAN,
                  logical_bytes: Optional[float] = None) -> List[np.ndarray]:
        """Allreduce across all ranks; returns each rank's (identical) result.

        Under a degraded membership only surviving ranks participate: the
        reduction (and a MEAN's normalization) runs over the alive subset
        and dead ranks receive their own contribution back untouched.
        """
        self._check(buffers)
        alive = self._alive()
        sub = buffers if alive is None else [buffers[r] for r in alive]
        if self.use_ring_allreduce:
            results, trace = allreduce_ring(sub, op)
        else:
            results, trace = allreduce_naive(sub, op)
        self._record(trace, logical_bytes)
        if alive is None:
            return results
        out = list(buffers)
        for i, r in enumerate(alive):
            out[r] = results[i]
        return out

    def allgather(self, buffers: Sequence[np.ndarray],
                  logical_bytes: Optional[float] = None) -> List[List[np.ndarray]]:
        """Allgather; rank ``r``'s result is the full list of contributions.

        Every rank receives read-only views of one shared staging buffer per
        contribution (one copy per contributor, not per rank).

        Under a degraded membership the gathered list holds only surviving
        contributions (in rank order) and dead ranks receive an empty list.
        """
        self._check(buffers)
        alive = self._alive()
        sub = buffers if alive is None else [buffers[r] for r in alive]
        results, trace = _allgather(sub)
        self._record(trace, logical_bytes)
        if alive is None:
            return results
        out: List[List[np.ndarray]] = [[] for _ in range(self.world_size)]
        for i, r in enumerate(alive):
            out[r] = results[i]
        return out

    def broadcast(self, buffers: Sequence[np.ndarray], root: int = 0,
                  logical_bytes: Optional[float] = None) -> List[np.ndarray]:
        """Broadcast rank ``root``'s buffer to every rank (one shared
        read-only staging copy, not one copy per rank).  A dead root cannot
        broadcast; dead receivers keep their own buffer."""
        self._check(buffers)
        alive = self._alive()
        if alive is None:
            results, trace = _broadcast(buffers, root=root)
            self._record(trace, logical_bytes)
            return results
        if root not in alive:
            raise ValueError(f"broadcast root {root} is not alive")
        sub = [buffers[r] for r in alive]
        results, trace = _broadcast(sub, root=int(np.searchsorted(alive, root)))
        self._record(trace, logical_bytes)
        out = list(buffers)
        for i, r in enumerate(alive):
            out[r] = results[i]
        return out

    def reduce_scatter(self, buffers: Sequence[np.ndarray],
                       op: CollectiveOp = CollectiveOp.SUM,
                       logical_bytes: Optional[float] = None) -> List[np.ndarray]:
        """Reduce then scatter equal chunks across ranks.  Under a degraded
        membership only survivors contribute and receive chunks; dead ranks
        get their own (unreduced) buffer back."""
        self._check(buffers)
        alive = self._alive()
        sub = buffers if alive is None else [buffers[r] for r in alive]
        results, trace = _reduce_scatter(sub, op)
        self._record(trace, logical_bytes)
        if alive is None:
            return results
        out = list(buffers)
        for i, r in enumerate(alive):
            out[r] = results[i]
        return out

    def neighbor_exchange(self, buffers: Sequence[np.ndarray], topology,
                          logical_bytes: Optional[float] = None) -> List[List[np.ndarray]]:
        """Gossip exchange over a :class:`~repro.comm.topology.CommTopology`.

        Rank ``r``'s result is the read-only staged contributions of its
        closed neighbourhood (itself + graph neighbours), ascending by rank.
        Priced by the graph's maximum degree, not the world size.

        Under a degraded membership the graph is re-routed around dead
        ranks (:meth:`~repro.comm.topology.CommTopology.alive_neighbors` —
        rings walk past dead hops, a dead star hub is replaced by the
        lowest survivor), degree/wire accounting follows the degraded
        graph, and dead ranks contribute nothing and receive an empty list.
        """
        self._check(buffers)
        alive = self._alive()
        if alive is None:
            results, trace = _neighbor_exchange(buffers, topology)
            self._record(trace, logical_bytes)
            return results
        p = self.world_size
        topology.validate(p)
        mask = self.membership.alive
        staged, mean_bytes = _stage_ragged_payloads(
            [buffers[r] for r in alive], "neighbor_exchange")
        by_rank = {r: staged[i] for i, r in enumerate(alive)}
        gathered: List[List[np.ndarray]] = [[] for _ in range(p)]
        for r in alive:
            hood = topology.alive_closed_neighborhood(r, p, mask)
            gathered[r] = [by_rank[q] for q in hood]
        trace = CollectiveTrace(
            kind="neighbor_exchange", message_bytes=mean_bytes,
            bytes_sent_per_rank=topology.alive_mean_degree(p, mask) * mean_bytes,
            rounds=topology.alive_max_degree(p, mask), world_size=len(alive))
        self._record(trace, logical_bytes)
        return gathered

    def point_to_point(self, message_bytes: float) -> float:
        """Price one point-to-point message (no data movement) and record it.

        The asynchronous strategies exchange with a server/center one rank at
        a time — there is no collective, just a single α–β priced message.
        The traffic still lands in :class:`WorldStats`, so
        ``simulated_comm_time`` covers async runs too.
        """
        message_bytes = float(message_bytes)
        if message_bytes < 0:
            raise ValueError(f"message_bytes must be >= 0, got {message_bytes}")
        trace = CollectiveTrace(kind="point_to_point",
                                message_bytes=message_bytes,
                                bytes_sent_per_rank=message_bytes,
                                rounds=1, world_size=self.world_size)
        simulated = self.network.point_to_point(message_bytes)
        trace.simulated_time_s = simulated
        self.stats.add(trace, simulated)
        self.last_trace = trace
        return simulated

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        self.stats.reset()

    @property
    def simulated_comm_time(self) -> float:
        """Total simulated communication time accumulated so far (seconds)."""
        return self.stats.simulated_time_s

    @property
    def last_comm_time(self) -> float:
        """Simulated seconds of the most recent collective — its own trace's
        price, which (unlike a difference of :attr:`simulated_comm_time`
        readings) does not depend on what the world recorded before."""
        return self.last_trace.simulated_time_s

    def __repr__(self) -> str:  # pragma: no cover
        return (f"InProcessWorld(world_size={self.world_size}, "
                f"network={self.network.name!r})")
