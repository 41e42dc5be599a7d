"""The per-event reference the async engine's gradient waves are tested against.

Until gradients were computed in waves, the async event loop stepped one
rank per event through its own :class:`RankExecutors` — one P = 1 executor
per rank over that rank's row of the flat world — drawing the rank's batch
at its event and carrying one P = 1 BPTT state per rank.
:class:`ReferenceSchedule` keeps that ``_compute_gradient`` body; everything
else (clock, fault gate, strategies, reports, checkpoints) is the
simulator's own code, shared by both sides.  Its ranks never hold a pending
gradient, so the event schedule's drop-pending hooks are no-ops here.

Build a trainer on it with :func:`reference_trainer`.
"""

from unittest import mock

from repro.core import DistributedTrainer
from repro.core.batched_replicas import RankExecutors
from repro.sim import engine as engine_module
from repro.sim.engine import EventSchedule


class ReferenceSchedule(EventSchedule):
    """The event schedule with one P = 1 executor step per event."""

    def __init__(self, sim):
        super().__init__(sim)
        trainer = self.trainer
        self._executors = RankExecutors(trainer.replicas, trainer.flat_world,
                                        trainer.spec.task)
        #: Carried BPTT state per rank, a stacked P = 1 state (stays ``None``
        #: for classifiers).
        self._lm_states = [None] * trainer.config.world_size

    def _compute_gradient(self, rank: int) -> float:
        """Forward/backward for one rank, written into its gradient row."""
        inputs, targets = self._draw(rank)
        if self._restarted[rank]:
            self._restarted[rank] = False
            self._lm_states[rank] = None
        self.batches_consumed[rank] += 1
        executor = self._executors.executors[rank]
        if self.trainer.spec.task == "language_model":
            losses, self._lm_states[rank] = executor.forward_backward(
                inputs[None], targets[None], self._lm_states[rank])
        else:
            losses = executor.forward_backward(inputs[None], targets[None])
        return losses[0]


def reference_trainer(config, callbacks=None) -> DistributedTrainer:
    """A trainer whose async runs step on :class:`ReferenceSchedule`."""
    with mock.patch.object(engine_module, "EventSchedule", ReferenceSchedule):
        return DistributedTrainer(config, callbacks=callbacks)
