"""Execution backends: who actually runs the replicas' forward/backward.

The trainer is written against two objects — a
:class:`~repro.core.flat_buffer.WorldFlatBuffers` holding the ``(P, n)``
parameter/gradient matrices and an executor with
``forward_backward(inputs, targets) -> losses`` — but nothing in the
algorithm code cares *where* those live.  An :class:`ExecutionBackend`
supplies both:

* ``inprocess`` (the default, and the reference semantics) builds the plain
  in-memory world and the batched executors of
  :mod:`repro.core.batched_replicas`.
* ``multiprocessing`` (:mod:`repro.backends.multiprocess`) puts the matrices
  in shared memory and fans the forward/backward out to long-lived worker
  processes — bit-identical numerics, real cores.

Backends are the 12th component registry (``repro components`` lists them;
unknown names get did-you-mean errors), and each backend declares which
feature combinations it cannot run via :meth:`compatibility_problems`, which
``ExperimentSpec.validate()`` and the trainer's constructor both read through
the run's :class:`~repro.core.features.RunFeatures` record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.core.batched_replicas import build_replica_executor
from repro.core.flat_buffer import WorldFlatBuffers
from repro.nn.module import Module
from repro.registry import Registry

if TYPE_CHECKING:
    from repro.core.features import RunFeatures

#: The execution-backend registry (12th public registry; see
#: ``repro components --registry backends``).
EXECUTION_BACKENDS = Registry("execution backend", expose="backends")


class ExecutionBackend:
    """Where a training run's forward/backward passes execute.

    Subclasses provide the flat world (whose storage they may place wherever
    they like) and the executor the trainer calls each iteration; everything
    else — data loading, the synchronization strategy's exchange, the fused
    optimizer step, evaluation, checkpointing — stays in the parent process
    regardless of backend, which is what keeps the backends bit-identical.
    """

    #: Canonical registry name (set by subclasses).
    name = "abstract"

    @classmethod
    def problems(cls, features: "RunFeatures") -> List[str]:
        """Every problem with the run's ``backend`` / ``backend_kwargs``:
        the backend is constructible with the kwargs, and accepts the
        feature combination."""
        kwargs = features.config.backend_kwargs
        if not isinstance(kwargs, dict):
            return [f"backend_kwargs must be a dict, got {type(kwargs).__name__}"]
        try:
            instance = cls(**kwargs)
        except Exception as error:
            return [f"backend {cls.name!r} cannot be constructed with "
                    f"{kwargs!r}: {error}"]
        try:
            return instance.compatibility_problems(features)
        finally:
            instance.close()

    def compatibility_problems(self, features: "RunFeatures") -> List[str]:
        """Pinned error messages for feature combinations this backend
        cannot run; empty when the configuration is supported."""
        return []

    def create_world(self, replicas: Sequence[Module]) -> WorldFlatBuffers:
        """Build the ``(P, n)`` flat world the trainer operates on."""
        raise NotImplementedError

    def create_executor(self, trainer):
        """Build the executor whose ``forward_backward`` runs each iteration."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent; the default has none)."""


@EXECUTION_BACKENDS.register(
    "inprocess",
    description="single-process batched executors (the default; "
                "reference semantics every other backend must match)")
class InProcessBackend(ExecutionBackend):
    """The seed execution model: everything runs in the trainer's process."""

    name = "inprocess"

    def create_world(self, replicas: Sequence[Module]) -> WorldFlatBuffers:
        return WorldFlatBuffers(replicas)

    def create_executor(self, trainer):
        return build_replica_executor(trainer.replicas, trainer.flat_world,
                                      trainer.spec.task)


def resolve_backend(name: object) -> type:
    """The registered backend class for a spec's ``backend`` field."""
    if not isinstance(name, str):
        raise ValueError(f"backend must be a registered name, "
                         f"got {type(name).__name__}")
    return EXECUTION_BACKENDS.get(name)
