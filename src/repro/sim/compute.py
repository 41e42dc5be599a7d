"""Seeded per-rank compute-time models for the virtual clock.

Each model answers one question: *how long does rank r take to produce its
next gradient?* — as a ``(compute_s, stall_s)`` pair, where ``compute_s`` is
productive forward/backward time and ``stall_s`` is dead time (e.g. a worker
that dropped out and is waiting to rejoin).  All randomness comes from
per-rank :func:`repro.utils.rng.new_rng` generators derived from the
``clock_seed``, so timelines are reproducible and independent of the data
seed.

A checkpoint saves each rank's generator by its state
(:meth:`ComputeTimeModel.generator_states`) and :meth:`ComputeTimeModel.restore`
sets it back, so a resumed run draws what the uninterrupted one would
whatever a model's draws per call.

Models are registry-backed (``COMPUTE_MODELS``) so new heterogeneity
scenarios plug in without trainer changes, and appear automatically in
``repro components``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.registry import Registry
from repro.utils.rng import generator_state, new_rng, set_generator_state

COMPUTE_MODELS = Registry("compute-time model", expose="compute-models")


class ComputeTimeModel:
    """Base class: one seeded generator per rank."""

    name = "base"

    def __init__(self):
        self.world_size = 0
        self.clock_seed = 0
        self._rngs: List[np.random.Generator] = []

    # ------------------------------------------------------------------ #
    def bind(self, world_size: int, clock_seed: int) -> None:
        """Attach the model to a world; resets all generators."""
        if world_size < 1:
            raise ValueError("world_size must be at least 1")
        self.world_size = int(world_size)
        self.clock_seed = int(clock_seed)
        self._rngs = [new_rng("sim-compute", self.name, rank, seed=self.clock_seed)
                      for rank in range(self.world_size)]

    def step_time(self, rank: int) -> Tuple[float, float]:
        """Draw the next ``(compute_s, stall_s)`` for ``rank``."""
        if not 0 <= rank < self.world_size:
            raise IndexError(f"rank {rank} out of range (bind() first?)")
        return self._sample(rank)

    def generator_states(self) -> np.ndarray:
        """Every rank's generator state, a ``(world_size, 6)`` uint64 array."""
        return np.stack([generator_state(rng) for rng in self._rngs])

    def restore(self, states: np.ndarray) -> None:
        """Set every rank's generator onto :meth:`generator_states` output."""
        if len(states) != self.world_size:
            raise ValueError(f"{len(states)} generator states for "
                             f"world_size {self.world_size}")
        for rng, words in zip(self._rngs, states):
            set_generator_state(rng, words)

    # ------------------------------------------------------------------ #
    def _sample(self, rank: int) -> Tuple[float, float]:
        """One draw from the rank's stream."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name}


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


@COMPUTE_MODELS.register("constant",
                         description="every rank takes exactly compute_s per step")
class ConstantComputeModel(ComputeTimeModel):
    """Homogeneous cluster: the degenerate model under which asynchronous
    strategies reduce to round-robin and lockstep accounting is exact."""

    name = "constant"

    def __init__(self, compute_s: float = 0.01):
        super().__init__()
        self.compute_s = _check_positive(compute_s, "compute_s")

    def _sample(self, rank: int) -> Tuple[float, float]:
        return self.compute_s, 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "compute_s": self.compute_s}


@COMPUTE_MODELS.register("lognormal",
                         description="i.i.d. lognormal step times (mean compute_s, shape sigma)")
class LognormalComputeModel(ComputeTimeModel):
    """Mean-preserving lognormal jitter: ``compute_s · exp(σz − σ²/2)``."""

    name = "lognormal"

    def __init__(self, compute_s: float = 0.01, sigma: float = 0.25):
        super().__init__()
        self.compute_s = _check_positive(compute_s, "compute_s")
        self.sigma = _check_nonnegative(sigma, "sigma")

    def _sample(self, rank: int) -> Tuple[float, float]:
        z = float(self._rngs[rank].standard_normal())
        return self.compute_s * float(np.exp(self.sigma * z - 0.5 * self.sigma ** 2)), 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "compute_s": self.compute_s, "sigma": self.sigma}


@COMPUTE_MODELS.register("straggler",
                         description="designated ranks run slowdown× slower, optional lognormal jitter")
class StragglerComputeModel(ComputeTimeModel):
    """Heterogeneous cluster with persistent stragglers.

    ``straggler_ranks`` (default: the last rank) take ``slowdown×`` the base
    mean; ``sigma > 0`` adds mean-preserving lognormal jitter on every rank,
    giving the "lognormal straggler" scenario.  Every step draws one normal,
    also at ``sigma = 0`` (jitter exactly 1), so a rank's stream does not
    depend on ``sigma``.
    """

    name = "straggler"

    def __init__(self, compute_s: float = 0.01, slowdown: float = 8.0,
                 straggler_ranks: Optional[Sequence[int]] = None,
                 sigma: float = 0.0):
        super().__init__()
        self.compute_s = _check_positive(compute_s, "compute_s")
        self.slowdown = _check_positive(slowdown, "slowdown")
        self.sigma = _check_nonnegative(sigma, "sigma")
        self.straggler_ranks = None if straggler_ranks is None \
            else sorted(int(r) for r in straggler_ranks)

    def bind(self, world_size: int, clock_seed: int) -> None:
        super().bind(world_size, clock_seed)
        ranks = self.straggler_ranks if self.straggler_ranks is not None \
            else [world_size - 1]
        for rank in ranks:
            if not 0 <= rank < world_size:
                raise ValueError(f"straggler rank {rank} out of range for "
                                 f"world_size {world_size}")
        self._slow = frozenset(ranks)

    def _sample(self, rank: int) -> Tuple[float, float]:
        z = float(self._rngs[rank].standard_normal())
        jitter = float(np.exp(self.sigma * z - 0.5 * self.sigma ** 2))
        scale = self.slowdown if rank in self._slow else 1.0
        return self.compute_s * scale * jitter, 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "compute_s": self.compute_s,
                "slowdown": self.slowdown, "sigma": self.sigma,
                "straggler_ranks": self.straggler_ranks}


@COMPUTE_MODELS.register("intermittent_dropout",
                         description="ranks randomly stall for downtime_s with probability drop_prob")
class IntermittentDropoutComputeModel(ComputeTimeModel):
    """Flaky workers: before each step a rank drops out with probability
    ``drop_prob`` and sits idle for ``downtime_s`` before computing."""

    name = "intermittent_dropout"

    def __init__(self, compute_s: float = 0.01, drop_prob: float = 0.05,
                 downtime_s: float = 0.25, sigma: float = 0.0):
        super().__init__()
        self.compute_s = _check_positive(compute_s, "compute_s")
        self.drop_prob = float(drop_prob)
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError(f"drop_prob must be in [0, 1), got {drop_prob}")
        self.downtime_s = _check_nonnegative(downtime_s, "downtime_s")
        self.sigma = _check_nonnegative(sigma, "sigma")

    def _sample(self, rank: int) -> Tuple[float, float]:
        rng = self._rngs[rank]
        u = float(rng.uniform())
        z = float(rng.standard_normal())
        compute = self.compute_s * float(np.exp(self.sigma * z - 0.5 * self.sigma ** 2))
        stall = self.downtime_s if u < self.drop_prob else 0.0
        return compute, stall

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "compute_s": self.compute_s,
                "drop_prob": self.drop_prob, "downtime_s": self.downtime_s,
                "sigma": self.sigma}


# ---------------------------------------------------------------------- #
# spec-level helpers (mirrors how sync/config resolves registry values)
# ---------------------------------------------------------------------- #
def resolve_compute_model(value) -> Optional[ComputeTimeModel]:
    """``None`` | registry name | ``{"name": ..., **kwargs}`` | instance."""
    if value is None:
        return None
    if isinstance(value, ComputeTimeModel):
        return value
    if isinstance(value, str):
        return COMPUTE_MODELS.create(value)
    if isinstance(value, dict):
        kwargs = dict(value)
        name = kwargs.pop("name", None)
        if not isinstance(name, str):
            raise ValueError("compute_model dict requires a 'name' key")
        return COMPUTE_MODELS.create(name, **kwargs)
    raise ValueError(f"compute_model must be None, a name or a dict, "
                     f"got {type(value).__name__}")
