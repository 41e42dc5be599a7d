"""Deterministic random-number management.

All stochastic components in the library (weight initialization, synthetic
datasets, stochastic quantization, mini-batch sampling, ...) draw from
``numpy.random.Generator`` instances produced here so that experiments are
reproducible bit-for-bit given a seed.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

_GLOBAL_SEED = 1234


def set_global_seed(seed: int) -> None:
    """Set the process-wide default seed used by :func:`new_rng`."""
    global _GLOBAL_SEED
    _GLOBAL_SEED = int(seed)


def get_global_seed() -> int:
    """Return the process-wide default seed."""
    return _GLOBAL_SEED


def derive_seed(*components: object, base: int | None = None) -> int:
    """Derive a stable 63-bit seed from arbitrary hashable components.

    The derivation is independent of Python's per-process hash randomization:
    it hashes the ``repr`` of each component with SHA-256.

    Parameters
    ----------
    components:
        Arbitrary values identifying the consumer (e.g. ``("worker", 3)``).
    base:
        Base seed to mix in; defaults to the global seed.
    """
    base = _GLOBAL_SEED if base is None else int(base)
    digest = hashlib.sha256()
    digest.update(str(base).encode("utf-8"))
    for component in components:
        digest.update(b"\x00")
        digest.update(repr(component).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "little") & (2**63 - 1)


def new_rng(*components: object, seed: int | None = None) -> np.random.Generator:
    """Create a new :class:`numpy.random.Generator` keyed on ``components``.

    Two calls with the same components and seed produce identical streams.
    """
    return np.random.default_rng(derive_seed(*components, base=seed))


_WORD = (1 << 64) - 1


def generator_state(rng: np.random.Generator) -> np.ndarray:
    """A PCG64 generator's whole state as six ``uint64`` words: its 128-bit
    state and increment (high word first), ``has_uint32`` and ``uinteger``.
    A checkpoint saves where a stream *is*, not how it got there; any other
    bit generator raises ``TypeError``."""
    state = rng.bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise TypeError(f"generator_state handles PCG64, got {state['bit_generator']}")
    pcg = state["state"]
    return np.array([pcg["state"] >> 64, pcg["state"] & _WORD, pcg["inc"] >> 64,
                     pcg["inc"] & _WORD, state["has_uint32"], state["uinteger"]],
                    dtype=np.uint64)


def set_generator_state(rng: np.random.Generator, words) -> None:
    """Inverse of :func:`generator_state` (NumPy refuses a non-PCG64 ``rng``)."""
    w = [int(word) for word in words]
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": w[4], "uinteger": w[5],
        "state": {"state": w[0] << 64 | w[1], "inc": w[2] << 64 | w[3]}}


def replica_init_seed(experiment_seed: int, rank: int) -> int:
    """The weight-initialization seed for replica ``rank``.

    Algorithm 1 line 1: every worker starts from the *same* initial model, so
    the derivation is rank-independent — but it is centralized here so the
    trainer and any out-of-process execution backend rebuilding a rank's
    replica (e.g. :mod:`repro.backends.multiprocess` workers) share one
    definition and stay bit-identical by construction.
    """
    del rank  # identical initialization on every rank, by design
    return int(experiment_seed)


class SeedSequenceFactory:
    """Hands out per-worker, per-purpose generators for a distributed run.

    A distributed experiment needs independent but reproducible randomness on
    every simulated worker (mini-batch order, dropout masks, stochastic
    quantization).  The factory derives all of them from a single experiment
    seed.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def for_worker(self, rank: int, purpose: str = "default") -> np.random.Generator:
        """Generator unique to ``(rank, purpose)`` under this experiment seed."""
        return new_rng("worker", int(rank), purpose, seed=self.seed)

    def for_purpose(self, purpose: str) -> np.random.Generator:
        """Generator shared by all workers for a given purpose (e.g. init)."""
        return new_rng("shared", purpose, seed=self.seed)

    def spawn(self, *components: object) -> "SeedSequenceFactory":
        """Create a child factory keyed on extra components."""
        return SeedSequenceFactory(derive_seed(*components, base=self.seed))

    def worker_seeds(self, world_size: int, purpose: str = "default") -> list[int]:
        """Seeds for every rank, useful when generators cannot be shared."""
        return [derive_seed("worker", r, purpose, base=self.seed) for r in range(world_size)]

    def permutation(self, n: int, purpose: str = "perm") -> np.ndarray:
        """A reproducible permutation of ``range(n)``."""
        return self.for_purpose(purpose).permutation(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SeedSequenceFactory(seed={self.seed})"


def interleave_seeds(seeds: Iterable[int]) -> int:
    """Combine several seeds into one (order-sensitive)."""
    combined = 0
    for i, s in enumerate(seeds):
        combined = derive_seed("interleave", i, int(s), base=combined)
    return combined
