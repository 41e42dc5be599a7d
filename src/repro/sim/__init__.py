"""Virtual-clock simulation: deterministic event-driven training time.

See :mod:`repro.sim.clock` (the priority-queue event loop),
:mod:`repro.sim.compute` (registry-backed per-rank compute-time models),
:mod:`repro.sim.engine` (the :class:`Simulator`: every run's clock and its
one epoch loop, on a barrier or an event schedule) and
:mod:`repro.sim.report` (the per-run :class:`SimReport`).
"""

from repro.sim.clock import VirtualClock
from repro.sim.compute import (
    COMPUTE_MODELS,
    ComputeTimeModel,
    resolve_compute_model,
)
from repro.sim.engine import BarrierSchedule, EventSchedule, Simulator
from repro.sim.report import SimReport

__all__ = [
    "BarrierSchedule",
    "COMPUTE_MODELS",
    "ComputeTimeModel",
    "EventSchedule",
    "SimReport",
    "Simulator",
    "VirtualClock",
    "resolve_compute_model",
]
