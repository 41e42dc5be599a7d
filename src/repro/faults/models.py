"""Seeded fault schedules: *when* is rank r down, which messages die?

A :class:`FaultModel` is a pure, deterministic function of
``(fault_seed, rank)`` onto the simulated-time axis.  It never mutates
training state itself — the :class:`repro.faults.injector.FaultInjector`
queries it at injection points (the simulator's two fault gates — the
event schedule's per event, the barrier schedule's per iteration — and the
exchange layer) and flips the
:class:`~repro.faults.membership.Membership` mask accordingly.  Keeping
schedules outside the strategies is the design invariant: strategies
*consult* membership, they never decide faults.

Three query surfaces, each deterministic and restore-free:

* :meth:`FaultModel.down_interval` — for membership-affecting models,
  the ``(start, end)`` down-interval covering time ``t`` (``end`` may be
  ``inf`` for crash-stop), else ``None``.  Blackout schedules are
  generated lazily per rank from a dedicated
  :func:`repro.utils.rng.new_rng` stream and memoized, so checkpoint
  resume simply regenerates them — no RNG state is saved.
* :meth:`FaultModel.message_dropped` — stateless per-message coin flip
  keyed on ``(seed, rank, message_index)`` via
  :func:`repro.utils.rng.derive_seed`; only integer counters need
  checkpointing.
* :meth:`FaultModel.extra_stall` — timing-only stalls (``slow_node``),
  keyed the same stateless way.

Per-rank streams never involve ``world_size``, so the same
``--seed-faults`` reproduces each rank's timeline across world sizes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.registry import Registry, RegistryKeyError
from repro.utils.rng import derive_seed, new_rng

FAULT_MODELS = Registry("fault model", expose="fault-models")

#: Resolution of the stateless per-event uniform draws.
_DRAW_DENOM = float(1 << 53)


def _unit_draw(seed: int, *components) -> float:
    """Deterministic uniform in ``[0, 1)`` from a hashed event key."""
    return (derive_seed(*components, base=seed) % (1 << 53)) / _DRAW_DENOM


def _check_positive(value: float, label: str) -> float:
    value = float(value)
    if not value > 0:
        raise ValueError(f"{label} must be > 0, got {value}")
    return value


def _check_nonnegative(value: float, label: str) -> float:
    value = float(value)
    if value < 0:
        raise ValueError(f"{label} must be >= 0, got {value}")
    return value


class FaultModel:
    """Base fault schedule; all queries are pure in ``(seed, rank, ...)``."""

    name = "base"
    #: Does this model take ranks in and out of membership?
    affects_membership = False
    #: Does this model drop messages on the wire?
    affects_messages = False
    #: Does this model inject extra per-step stalls (timing only)?
    affects_timing = False

    def __init__(self):
        self.world_size = 0
        self.seed = 0

    def bind(self, world_size: int, seed: int) -> None:
        if world_size < 1:
            raise ValueError("world_size must be at least 1")
        self.world_size = int(world_size)
        self.seed = int(seed)

    # ------------------------------------------------------------------ #
    # query surfaces
    # ------------------------------------------------------------------ #
    def down_interval(self, rank: int, t: float) -> Optional[Tuple[float, float]]:
        """The down-interval ``(start, end)`` containing simulated time
        ``t``, or ``None`` if the rank is up at ``t``."""
        return None

    def message_dropped(self, rank: int, index: int) -> bool:
        """Is message ``index`` from ``rank`` lost on the wire?"""
        return False

    def extra_stall(self, rank: int, index: int) -> float:
        """Timing-only stall injected before step ``index`` of ``rank``."""
        return 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name}


def _validate_ranks(ranks: Sequence[int], world_size: int,
                    label: str) -> List[int]:
    out = sorted(int(r) for r in ranks)
    for rank in out:
        if not 0 <= rank < world_size:
            raise ValueError(f"{label} rank {rank} out of range for "
                             f"world_size {world_size}")
    return out


@FAULT_MODELS.register("crash_stop",
                       description="listed ranks die at at_s and never return")
class CrashStopFaultModel(FaultModel):
    """Fail-stop: ``ranks`` (default: the last rank) go down at simulated
    time ``at_s`` and stay down for the rest of the run."""

    name = "crash_stop"
    affects_membership = True

    def __init__(self, ranks: Optional[Sequence[int]] = None,
                 at_s: float = 0.0):
        super().__init__()
        self.at_s = _check_nonnegative(at_s, "at_s")
        self.ranks = None if ranks is None else sorted(int(r) for r in ranks)

    def bind(self, world_size: int, seed: int) -> None:
        super().bind(world_size, seed)
        ranks = self.ranks if self.ranks is not None else [world_size - 1]
        self._crashed = frozenset(_validate_ranks(ranks, world_size,
                                                  "crash_stop"))

    def down_interval(self, rank: int, t: float) -> Optional[Tuple[float, float]]:
        if rank in self._crashed and t >= self.at_s:
            return (self.at_s, math.inf)
        return None

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "ranks": self.ranks, "at_s": self.at_s}


@FAULT_MODELS.register("transient_blackout",
                       description="ranks alternate up/down with exponential durations")
class TransientBlackoutFaultModel(FaultModel):
    """Crash-recovery churn: each affected rank alternates exponentially
    distributed up-phases (mean ``mean_up_s``) and blackouts (mean
    ``mean_down_s``), from an independent per-rank stream.  Intervals are
    generated lazily and memoized; regenerating after a checkpoint load
    reproduces the identical timeline."""

    name = "transient_blackout"
    affects_membership = True

    def __init__(self, mean_down_s: float = 0.25, mean_up_s: float = 1.0,
                 ranks: Optional[Sequence[int]] = None):
        super().__init__()
        self.mean_down_s = _check_positive(mean_down_s, "mean_down_s")
        self.mean_up_s = _check_positive(mean_up_s, "mean_up_s")
        self.ranks = None if ranks is None else sorted(int(r) for r in ranks)

    def bind(self, world_size: int, seed: int) -> None:
        super().bind(world_size, seed)
        ranks = self.ranks if self.ranks is not None else list(range(world_size))
        self._affected = frozenset(_validate_ranks(ranks, world_size,
                                                   "transient_blackout"))
        # rank -> (rng, [(down_start, down_end), ...], horizon); the horizon
        # is the end of the last generated interval, so queries below it are
        # fully answerable from the memoized list.
        self._schedules: Dict[int, list] = {}

    def _ensure(self, rank: int, t: float) -> List[Tuple[float, float]]:
        state = self._schedules.get(rank)
        if state is None:
            rng = new_rng("fault-model", self.name, rank, seed=self.seed)
            state = [rng, [], 0.0]
            self._schedules[rank] = state
        rng, intervals, horizon = state
        while horizon <= t:
            up = float(rng.exponential(self.mean_up_s))
            down = float(rng.exponential(self.mean_down_s))
            start = horizon + up
            intervals.append((start, start + down))
            horizon = start + down
        state[2] = horizon
        return intervals

    def down_interval(self, rank: int, t: float) -> Optional[Tuple[float, float]]:
        if rank not in self._affected:
            return None
        intervals = self._ensure(rank, t)
        pos = bisect_right(intervals, (t, math.inf)) - 1
        if pos >= 0:
            start, end = intervals[pos]
            if start <= t < end:
                return (start, end)
        return None

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "mean_down_s": self.mean_down_s,
                "mean_up_s": self.mean_up_s, "ranks": self.ranks}


@FAULT_MODELS.register("message_loss",
                       description="each message independently lost with probability p")
class MessageLossFaultModel(FaultModel):
    """Lossy network: every message from every rank is independently lost
    with probability ``p``.  Draws are stateless hashes of
    ``(seed, rank, message_index)`` — only the per-rank message counters
    (kept by the injector) need checkpointing."""

    name = "message_loss"
    affects_messages = True

    def __init__(self, p: float = 0.05):
        super().__init__()
        self.p = float(p)
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must be in [0, 1), got {p}")

    def message_dropped(self, rank: int, index: int) -> bool:
        if self.p == 0.0:
            return False
        return _unit_draw(self.seed, "fault-msg", self.name, rank, index) < self.p

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "p": self.p}


@FAULT_MODELS.register("slow_node",
                       description="timing-only stalls: ranks pause downtime_s with probability drop_prob")
class SlowNodeFaultModel(FaultModel):
    """The old ``intermittent_dropout`` semantics, preserved: before each
    step an affected rank stalls for ``downtime_s`` with probability
    ``drop_prob`` — it is *slow*, never absent.  Membership, exchanges and
    numerics are untouched; only simulated time moves."""

    name = "slow_node"
    affects_timing = True

    def __init__(self, drop_prob: float = 0.05, downtime_s: float = 0.25,
                 ranks: Optional[Sequence[int]] = None):
        super().__init__()
        self.drop_prob = float(drop_prob)
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError(f"drop_prob must be in [0, 1), got {drop_prob}")
        self.downtime_s = _check_nonnegative(downtime_s, "downtime_s")
        self.ranks = None if ranks is None else sorted(int(r) for r in ranks)

    def bind(self, world_size: int, seed: int) -> None:
        super().bind(world_size, seed)
        ranks = self.ranks if self.ranks is not None else list(range(world_size))
        self._affected = frozenset(_validate_ranks(ranks, world_size,
                                                   "slow_node"))

    def extra_stall(self, rank: int, index: int) -> float:
        if rank not in self._affected or self.drop_prob == 0.0:
            return 0.0
        u = _unit_draw(self.seed, "fault-stall", self.name, rank, index)
        return self.downtime_s if u < self.drop_prob else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "drop_prob": self.drop_prob,
                "downtime_s": self.downtime_s, "ranks": self.ranks}


# ---------------------------------------------------------------------- #
# spec-level helpers (mirrors sim/compute.resolve_compute_model)
# ---------------------------------------------------------------------- #
def resolve_fault_model(value) -> Optional[FaultModel]:
    """``None``/``"none"`` | registry name | ``{"name": ...}`` | instance."""
    if value is None:
        return None
    if isinstance(value, FaultModel):
        return value
    if isinstance(value, str):
        if value == "none":
            return None
        return FAULT_MODELS.create(value)
    if isinstance(value, dict):
        kwargs = dict(value)
        name = kwargs.pop("name", None)
        if not isinstance(name, str):
            raise ValueError("fault model dict requires a 'name' key")
        if name == "none":
            if kwargs:
                raise ValueError("fault model 'none' takes no arguments")
            return None
        return FAULT_MODELS.create(name, **kwargs)
    raise ValueError(f"fault model must be None, a name or a dict, "
                     f"got {type(value).__name__}")


def fault_model_problems(value) -> List[str]:
    """Validation-friendly version of :func:`resolve_fault_model`."""
    if value is None:
        return []
    try:
        resolve_fault_model(value)
    except (RegistryKeyError, ValueError, TypeError) as error:
        return [f"fault model: {error}"]
    return []
