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
    allgather as _allgather,
    allreduce_ring,
    neighbor_exchange as _neighbor_exchange,
)
from repro.comm.network_model import CollectiveTimeModel, NetworkModel, infiniband_100gbps
from repro.faults.membership import Membership


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
    """

    def __init__(self, world_size: int, network: Optional[NetworkModel] = None):
        if world_size < 1:
            raise ValueError("world size must be at least 1")
        self.world_size = int(world_size)
        self.network = network if network is not None else infiniband_100gbps()
        self.time_model = CollectiveTimeModel(self.network)
        self.stats = WorldStats()
        self.last_trace: Optional[CollectiveTrace] = None
        #: Live membership mask: every rank alive on a run without a fault
        #: layer; a run with one installs its injector's mask here.  Every
        #: collective runs over its alive ranks — a healthy world is the
        #: all-alive case, not a separate path.
        self.membership = Membership(self.world_size)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _check(self, buffers: Sequence[np.ndarray]) -> None:
        """Callers always pass full ``world_size`` buffer lists; the alive
        ranks' entries are the participants (:meth:`Membership.gather`),
        dead ranks' entries are ignored (they may be ``None``), and each
        collective hands dead ranks their own contribution back (or an empty
        gather), so reductions renormalize over the survivors."""
        if len(buffers) != self.world_size:
            raise ValueError(f"expected {self.world_size} contributions, got {len(buffers)}")
        if not self.membership.num_alive:
            raise RuntimeError("collective called with every rank dead")

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
        """Ring allreduce over the alive ranks; returns each rank's result.

        The reduction (and a MEAN's normalization) runs over the survivors
        and dead ranks receive their own contribution back untouched.
        """
        self._check(buffers)
        results, trace = allreduce_ring(self.membership.gather(buffers), op)
        self._record(trace, logical_bytes)
        return self.membership.scatter(results, buffers)

    def allgather(self, buffers: Sequence[np.ndarray],
                  logical_bytes: Optional[float] = None) -> List[List[np.ndarray]]:
        """Allgather; a surviving rank's result is the list of surviving
        contributions (in rank order), a dead rank's an empty list.

        Every rank receives read-only views of one shared staging buffer per
        contribution (one copy per contributor, not per rank).
        """
        self._check(buffers)
        results, trace = _allgather(self.membership.gather(buffers))
        self._record(trace, logical_bytes)
        return self.membership.scatter(results, [[] for _ in range(self.world_size)])

    def neighbor_exchange(self, buffers: Sequence[np.ndarray], topology,
                          logical_bytes: Optional[float] = None) -> List[List[np.ndarray]]:
        """Gossip exchange over a :class:`~repro.comm.topology.CommTopology`.

        Rank ``r``'s result is the read-only staged contributions of its
        closed neighbourhood (itself + graph neighbours) under the live
        membership, ascending by rank; dead ranks contribute nothing and
        receive an empty list (see
        :func:`~repro.comm.collectives.neighbor_exchange`).  Priced by the
        graph's maximum degree over the survivors, not the world size.
        """
        self._check(buffers)
        gathered, trace = _neighbor_exchange(buffers, topology, self.membership.alive)
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
