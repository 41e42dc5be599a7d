"""The fault injector: schedules in, membership flips and pricing out.

One :class:`FaultInjector` per trainer.  It owns the
:class:`~repro.faults.membership.Membership` mask, the
:class:`~repro.faults.report.FaultReport` counters and the small amount
of mutable state (per-rank message/stall counters, pending catch-up
flags) that the stateless fault models cannot carry.  Injection points
call it from exactly two layers:

* the :class:`repro.sim.engine.Simulator`'s fault gates (one per event on
  the event schedule, one per iteration boundary on the barrier schedule) —
  membership transitions, rejoin catch-up scheduling, stall injection;
* the exchange layer — per-message loss draws and retransmit pricing.

Strategies never see the injector; they only consult the membership.

Barrier policy: a lockstep world discovers a newly-dead rank by timing
out on it (``barrier_timeout_s``) and then retrying with bounded
exponential backoff (``max_retries`` attempts, base ``backoff_base_s``)
before declaring it dead — all charged to simulated time instead of
deadlocking.  The same backoff schedule prices reliable retransmission
of lost lockstep messages.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.faults.membership import Membership
from repro.faults.models import FaultModel
from repro.faults.report import FaultReport


class FaultInjector:
    """Orchestrates one fault model over one world."""

    def __init__(self, model: Optional[FaultModel], world_size: int,
                 seed: int = 0, barrier_timeout_s: float = 0.1,
                 max_retries: int = 3, backoff_base_s: float = 0.05,
                 bridge_compute_stalls: bool = False):
        self.model = model
        self.world_size = int(world_size)
        self.seed = int(seed)
        self.barrier_timeout_s = float(barrier_timeout_s)
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        #: When True, compute-model stalls (``intermittent_dropout``) are
        #: promoted to membership absences for the stalled iteration.
        self.bridge_compute_stalls = bool(bridge_compute_stalls)
        if model is not None:
            model.bind(self.world_size, self.seed)
        self.membership = Membership(self.world_size)
        self.report = FaultReport(
            self.world_size, model.name if model is not None else "none",
            self.seed)
        self._message_counters = np.zeros(self.world_size, dtype=np.int64)
        self._stall_counters = np.zeros(self.world_size, dtype=np.int64)
        #: Ranks whose next scheduled event is a catch-up re-sync (async).
        self.needs_catchup = np.zeros(self.world_size, dtype=bool)
        #: Per-rank simulated time up to which permanent (infinite-interval)
        #: downtime has already been charged to the report — settling is
        #: incremental so an interrupted run resumes without double counting.
        self._downtime_marks = np.zeros(self.world_size, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # schedule queries
    # ------------------------------------------------------------------ #
    def down_interval(self, rank: int, t: float) -> Optional[Tuple[float, float]]:
        if self.model is None or not self.model.affects_membership:
            return None
        return self.model.down_interval(rank, t)

    def is_down(self, rank: int, t: float) -> bool:
        return self.down_interval(rank, t) is not None

    @property
    def affects_messages(self) -> bool:
        return self.model is not None and self.model.affects_messages

    @property
    def affects_timing(self) -> bool:
        return self.model is not None and self.model.affects_timing

    # ------------------------------------------------------------------ #
    # counter-consuming draws (checkpointed via the counters)
    # ------------------------------------------------------------------ #
    def message_dropped(self, rank: int) -> bool:
        """One wire transmission from ``rank``; True if it is lost."""
        if not self.affects_messages:
            return False
        index = int(self._message_counters[rank])
        self._message_counters[rank] += 1
        dropped = self.model.message_dropped(rank, index)
        if dropped:
            self.report.dropped_messages += 1
        return dropped

    def extra_stall(self, rank: int) -> float:
        """Timing-only stall for the rank's next step (``slow_node``)."""
        if not self.affects_timing:
            return 0.0
        index = int(self._stall_counters[rank])
        self._stall_counters[rank] += 1
        return self.model.extra_stall(rank, index)

    # ------------------------------------------------------------------ #
    # pricing
    # ------------------------------------------------------------------ #
    def discovery_penalty_s(self) -> float:
        """Simulated cost of a barrier discovering one newly-dead rank:
        one timeout plus the full bounded-backoff retry ladder."""
        self.report.barrier_timeouts += 1
        self.report.retries += self.max_retries
        backoff = sum(self.backoff_base_s * (2.0 ** k)
                      for k in range(self.max_retries))
        return self.barrier_timeout_s + backoff

    def retransmit_penalty_s(self, rank: int) -> float:
        """Reliable lockstep send under message loss: redraw until a
        transmission survives (bounded by ``max_retries`` retries — the
        final attempt always succeeds), charging exponential backoff per
        lost attempt.  Numerics are untouched; only time and counters."""
        if not self.affects_messages:
            return 0.0
        penalty = 0.0
        for attempt in range(self.max_retries + 1):
            if not self.message_dropped(rank):
                break
            if attempt >= self.max_retries:
                break
            self.report.retries += 1
            penalty += self.backoff_base_s * (2.0 ** attempt)
        return penalty

    def settle_permanent_downtime(self, now: float) -> None:
        """Charge downtime for permanently-dead ranks up to ``now``.

        Finite outages record their downtime when they are discovered; an
        infinite one (crash_stop) only ends with the run, so the event loop
        settles it at exit.  The per-rank mark makes settling idempotent:
        an interrupted run charges up to the interruption and the resumed
        run only charges the remainder.
        """
        for rank in self.membership.dead_ranks():
            interval = self.down_interval(rank, now)
            if interval is None or math.isfinite(interval[1]):
                continue
            mark = max(float(self._downtime_marks[rank]), interval[0])
            if now > mark:
                self.report.record_downtime(rank, now - mark)
                self._downtime_marks[rank] = now

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        arrays = {
            "message_counters": self._message_counters.copy(),
            "stall_counters": self._stall_counters.copy(),
            "needs_catchup": self.needs_catchup.astype(np.uint8),
            "downtime_marks": self._downtime_marks.copy(),
        }
        for key, value in self.membership.state_arrays().items():
            arrays[f"membership_{key}"] = value
        for key, value in self.report.state_arrays().items():
            arrays[f"report_{key}"] = value
        return arrays

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self._message_counters = np.asarray(
            arrays["message_counters"], dtype=np.int64).copy()
        self._stall_counters = np.asarray(
            arrays["stall_counters"], dtype=np.int64).copy()
        self.needs_catchup = np.asarray(
            arrays["needs_catchup"]).astype(bool).copy()
        self._downtime_marks = np.asarray(
            arrays["downtime_marks"], dtype=np.float64).copy()
        self.membership.load_state_arrays(
            {"alive": arrays["membership_alive"]})
        self.report.load_state_arrays(
            {key[len("report_"):]: value for key, value in arrays.items()
             if key.startswith("report_")})
