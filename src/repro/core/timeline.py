"""Simulated timing records: one synchronization's, and a run's totals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class SyncReport:
    """Timing and traffic of one gradient synchronization."""

    #: Modelled seconds one worker spends compressing + decompressing: the
    #: analytic price ``compression_time(algorithm, n)`` of
    #: :data:`repro.core.cost_model.DEFAULT_COMPRESSION_MODEL` (workers
    #: compress in parallel, so one worker's price is the iteration's).
    compression_time_s: float = 0.0
    #: Simulated collective time from the α–β network model.
    comm_time_s: float = 0.0
    #: Analytic bits each worker put on the wire.
    wire_bits_per_worker: float = 0.0
    #: Collective kind that was executed ("allreduce" / "allgather").
    exchange: str = "allreduce"
    #: Modeled off-wire aggregation time (robust aggregators' gather +
    #: combine work, e.g. Weiszfeld iterations — see
    #: :meth:`repro.sync.aggregators.Aggregator.combine_time_s`).  The
    #: on-wire mean allreduce costs nothing here; its time is in
    #: ``comm_time_s``.
    aggregation_time_s: float = 0.0


@dataclass
class IterationTimeline:
    """Simulated time of a training run, per component.

    A fold over the run's priced iterations, fed in one place by the
    simulator that keeps the run's clock.  Each lockstep iteration
    (:meth:`repro.sim.engine.LockstepSimulator.record_iteration`) adds its
    compute barrier — the slowest surviving rank's drawn ``compute + stall``
    — its report's compression, communication and aggregation terms, and
    the fault layer's time (rejoin re-syncs, discovery timeouts,
    retransmissions, slow-node stalls), so ``total_s`` is the lockstep
    clock.  Each async event (:class:`repro.sim.engine.SimulationEngine`)
    adds the compute time it draws for its rank's next step and its step's
    terms; ranks overlap there, so the sum runs ahead of the clock.
    """

    compute_s: float = 0.0
    compression_s: float = 0.0
    communication_s: float = 0.0
    aggregation_s: float = 0.0
    fault_s: float = 0.0
    iterations: int = 0

    def record(self, compute_s: float, report: SyncReport,
               fault_s: float = 0.0) -> None:
        self.compute_s += compute_s
        self.compression_s += report.compression_time_s
        self.communication_s += report.comm_time_s
        self.aggregation_s += report.aggregation_time_s
        self.fault_s += fault_s
        self.iterations += 1

    @property
    def total_s(self) -> float:
        return (self.compute_s + self.compression_s + self.communication_s
                + self.aggregation_s + self.fault_s)

    def as_dict(self) -> Dict[str, float]:
        return {
            "compute_s": self.compute_s,
            "compression_s": self.compression_s,
            "communication_s": self.communication_s,
            "aggregation_s": self.aggregation_s,
            "fault_s": self.fault_s,
            "total_s": self.total_s,
            "iterations": float(self.iterations),
        }
