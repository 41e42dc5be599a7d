"""Live membership over the flat ``(P, n)`` world buffers.

A :class:`Membership` is a boolean alive-mask over the ``P`` ranks of a
world.  It is the single source of truth for "who is participating right
now": every world has one (all ranks alive on a run without a fault
layer; the fault injector's, which flips ranks down/up, on a run with
one), comm collectives subset their participant lists through it, and
every ``SyncStrategy`` consults it so aggregation renormalizes over
survivors instead of deadlocking on (or averaging in) dead ranks.

A healthy world is the all-alive case of this one mask, not a separate
code path: every exchange is written once over the alive ranks, and
:meth:`Membership.gather` / :meth:`Membership.scatter` — which hand a
healthy world's matrix or list back unchanged — are the only place the
all-alive case is named.

The mask is deliberately dumb — no timers, no schedules.  *When* a rank
is down is the fault model's business (:mod:`repro.faults.models`); the
membership only records the current state so that every layer observes
one consistent view within an iteration.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class Membership:
    """Boolean alive-mask over ``world_size`` ranks (all alive initially).

    The rank sets every degraded iteration asks for — alive, dead, their
    count, whether all are alive — are computed at most once per
    transition, not per query (the index arrays on the first query after
    it: one fault phase may flip several ranks).  ``alive``,
    ``alive_ranks()`` and ``dead_ranks()`` are read-only arrays
    (``alive_ranks()`` indexes a ``(P, n)`` matrix directly); only
    :meth:`set_alive` and :meth:`load_state_arrays` change them.
    """

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = int(world_size)
        self._set_mask(np.ones(self.world_size, dtype=bool))

    def _set_mask(self, alive: np.ndarray) -> None:
        alive.setflags(write=False)
        self.alive = alive
        self.num_alive = int(np.count_nonzero(alive))
        self.all_alive = self.num_alive == self.world_size
        self._alive_ranks = self._dead_ranks = None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def is_alive(self, rank: int) -> bool:
        return bool(self.alive[rank])

    def alive_ranks(self) -> np.ndarray:
        """Surviving ranks, ascending (a read-only index array)."""
        if self._alive_ranks is None:
            self._alive_ranks = _read_only(np.flatnonzero(self.alive))
        return self._alive_ranks

    def dead_ranks(self) -> np.ndarray:
        """Ranks out of membership, ascending (a read-only index array)."""
        if self._dead_ranks is None:
            self._dead_ranks = _read_only(np.flatnonzero(~self.alive))
        return self._dead_ranks

    # ------------------------------------------------------------------ #
    # the participants of an exchange
    # ------------------------------------------------------------------ #
    def gather(self, items):
        """The surviving ranks' entries of a per-rank list or ``(P, ...)``
        matrix, in rank order.

        With every rank alive this is ``items`` itself — no index, no copy —
        so a healthy world runs the same exchange as a degraded one without
        paying for a subset it does not take.
        """
        if self.all_alive:
            return items
        alive = self.alive_ranks()
        if isinstance(items, np.ndarray):
            return items[alive]
        return [items[rank] for rank in alive]

    def scatter(self, results, base: Sequence):
        """Inverse of :meth:`gather`: ``results`` (one per survivor, in rank
        order) at the surviving ranks and ``base``'s entries — what a dead
        rank keeps — at the others, as a new matrix when ``base`` is one and
        a list otherwise.  With every rank alive this is ``results`` itself.
        """
        if self.all_alive:
            return results
        alive = self.alive_ranks()
        if isinstance(base, np.ndarray):
            # Every row is written once: the survivors', then the dead ranks'.
            out = np.empty_like(base)
            out[alive] = results
            dead = self.dead_ranks()
            out[dead] = base[dead]
            return out
        out = list(base)
        for index, rank in enumerate(alive):
            out[rank] = results[index]
        return out

    # ------------------------------------------------------------------ #
    # transitions
    # ------------------------------------------------------------------ #
    def set_alive(self, rank: int, alive: bool) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range for world_size "
                             f"{self.world_size}")
        if bool(self.alive[rank]) != bool(alive):
            mask = self.alive.copy()
            mask[rank] = bool(alive)
            self._set_mask(mask)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {"alive": self.alive.astype(np.uint8)}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        alive = np.asarray(arrays["alive"]).astype(bool)
        if alive.shape != (self.world_size,):
            raise ValueError("membership state does not match world_size")
        self._set_mask(alive.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Membership(alive={self.alive.astype(int).tolist()})"
