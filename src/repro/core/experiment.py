"""High-level experiment runner used by examples and the benchmark harness.

An :class:`~repro.core.spec.ExperimentSpec` describes one cell of the
paper's evaluation grid (model × algorithm × world size × network);
:func:`run_experiment` trains it and returns an :class:`ExperimentResult`
with the convergence curve, timing breakdown and traffic accounting, ready
to be rendered into the paper's figures and tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.metrics import TrainingMetrics
from repro.core.spec import ExperimentSpec
from repro.core.timeline import IterationTimeline
from repro.core.trainer import DistributedTrainer
from repro.utils.serialization import to_jsonable


@dataclass
class ExperimentResult:
    """Everything a figure/table needs about one finished experiment."""

    config: ExperimentSpec
    metrics: TrainingMetrics
    timeline: IterationTimeline
    num_parameters: int
    wire_bits_per_iteration: float
    wall_time_s: float
    #: Simulated-clock summary: ``SimReport.as_dict()`` (which leaves out the
    #: raw event log).
    sim: Dict[str, object]
    #: Client-participation summary (the population's ``summary()`` dict)
    #: when the spec configured a federated client population; None
    #: otherwise.
    clients: Optional[Dict[str, object]] = None

    @property
    def final_metric(self) -> float:
        return self.metrics.final_metric

    @property
    def metric_name(self) -> str:
        return self.metrics.metric_name

    def as_dict(self) -> Dict[str, object]:
        return to_jsonable({
            "config": self.config,
            "metrics": self.metrics.as_dict(),
            "timeline": self.timeline.as_dict(),
            "num_parameters": self.num_parameters,
            "wire_bits_per_iteration": self.wire_bits_per_iteration,
            "wall_time_s": self.wall_time_s,
            "sim": self.sim,
            "clients": self.clients,
        })


def run_experiment(config: ExperimentSpec,
                   callbacks: Optional[Iterable] = None) -> ExperimentResult:
    """Train one spec end to end and collect its results.

    ``callbacks`` (instances, registered names, or ``{"name": ...}`` dicts)
    run in addition to any callbacks declared on the spec itself.
    """
    start = time.perf_counter()
    all_callbacks = [*config.callbacks, *(callbacks or [])]
    trainer = DistributedTrainer(config.to_trainer_config(), callbacks=all_callbacks)
    try:
        metrics = trainer.train()
    finally:
        # Backends with external resources (worker processes, shared-memory
        # segments) must release them even when training raises.
        trainer.close()
    wall = time.perf_counter() - start
    return ExperimentResult(
        config=config,
        metrics=metrics,
        timeline=trainer.timeline,
        num_parameters=trainer.num_parameters,
        wire_bits_per_iteration=trainer.wire_bits_per_iteration,
        wall_time_s=wall,
        sim=trainer.sim_report.as_dict(),
        clients=trainer.population.summary()
        if trainer.population is not None else None,
    )


def run_algorithm_sweep(base: ExperimentSpec,
                        algorithms: List[str]) -> Dict[str, ExperimentResult]:
    """Run the same experiment for several algorithms (one Figure 3 panel).

    Each cell gets an independent deep copy of ``base`` via
    :meth:`ExperimentSpec.replace`, so mutable fields (``compressor_kwargs``,
    ``network``) are never shared between runs.
    """
    results: Dict[str, ExperimentResult] = {}
    for algorithm in algorithms:
        results[algorithm] = run_experiment(base.replace(algorithm=algorithm))
    return results
