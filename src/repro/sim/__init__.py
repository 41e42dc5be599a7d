"""Virtual-clock simulation: deterministic event-driven training time.

See :mod:`repro.sim.clock` (the priority-queue event loop),
:mod:`repro.sim.compute` (registry-backed per-rank compute-time models),
:mod:`repro.sim.engine` (the async event loop + lockstep time accounting)
and :mod:`repro.sim.report` (the per-run :class:`SimReport`).
"""

from repro.sim.clock import VirtualClock
from repro.sim.compute import (
    COMPUTE_MODELS,
    ComputeTimeModel,
    resolve_compute_model,
)
from repro.sim.engine import LockstepSimulator, SimulationEngine
from repro.sim.report import SimReport

__all__ = [
    "COMPUTE_MODELS",
    "ComputeTimeModel",
    "LockstepSimulator",
    "SimReport",
    "SimulationEngine",
    "VirtualClock",
    "resolve_compute_model",
]
