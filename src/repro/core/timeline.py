"""Per-iteration timing records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


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
    """Accumulated timing of a training run, per component.

    ``compute`` is the measured forward/backward time of the simulated
    workers (max across workers per iteration), ``compression`` the modelled
    compressor price, ``communication`` the simulated collective time, and
    ``aggregation`` the modeled robust-aggregator combine time.  Fed one
    record per iteration by
    :class:`repro.core.callbacks.TimelineCallback` at ``on_iteration_end``.
    """

    compute_s: float = 0.0
    compression_s: float = 0.0
    communication_s: float = 0.0
    aggregation_s: float = 0.0
    iterations: int = 0
    per_iteration: List[Dict[str, float]] = field(default_factory=list)

    def record(self, compute_s: float, report: SyncReport) -> None:
        self.compute_s += compute_s
        self.compression_s += report.compression_time_s
        self.communication_s += report.comm_time_s
        self.aggregation_s += report.aggregation_time_s
        self.iterations += 1
        self.per_iteration.append({
            "compute_s": compute_s,
            "compression_s": report.compression_time_s,
            "communication_s": report.comm_time_s,
            "aggregation_s": report.aggregation_time_s,
        })

    @property
    def total_s(self) -> float:
        return (self.compute_s + self.compression_s + self.communication_s
                + self.aggregation_s)

    def mean_iteration_time(self) -> float:
        return self.total_s / self.iterations if self.iterations else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "compute_s": self.compute_s,
            "compression_s": self.compression_s,
            "communication_s": self.communication_s,
            "aggregation_s": self.aggregation_s,
            "total_s": self.total_s,
            "iterations": float(self.iterations),
        }
