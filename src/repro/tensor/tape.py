"""Tape recording and replay for the batched autograd executors.

The define-by-run graph the batched executors build is structurally identical
every iteration — only the input/target data changes.  Rebuilding it in Python
each step (closure allocation, broadcasting checks, graph bookkeeping) is the
dominant cost for deep models.  A :class:`Tape` records, during one eager
iteration, the ordered list of *replay thunks* the ops in
:mod:`repro.tensor.tensor` and :mod:`repro.tensor.functional` emit; a
:class:`TapeReplayer` then re-runs that program on later iterations after the
caller has refreshed the input buffers in place.

Correctness rests on two invariants:

1. **In-place refresh.** Every recorded node's ``data`` array is updated in
   place on replay, never rebound, so the references captured by the backward
   closures (and by downstream replay thunks) stay valid.  Ops whose output is
   a NumPy view of their parent record a view marker and do nothing on replay.
2. **Identical backward order.** Float accumulation into multi-consumer nodes
   is order-sensitive, so the replayer computes the backward topological order
   once with :func:`~repro.tensor.tensor.backward_order`, the sort
   :meth:`Tensor.backward` uses, and walks it every replay.  Together with
   thunks that re-run the exact eager arithmetic (same ufuncs, only routed
   through ``out=``), this makes replay bit-identical to the eager batched
   path.

Ops that cannot be replayed (data-dependent control flow such as ``dropout``,
comparisons, ``Tensor.where``) invalidate the tape; executors then fall back
to eager execution for that signature.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional

import numpy as np

from .tensor import Tensor, _NO_REPLAY, _VIEW_REPLAY, backward_order, set_active_tape


class Tape:
    """Recording of one eager iteration's forward program.

    ``record_node`` / ``record_effect`` are called by the op implementations
    while this tape is installed via :func:`repro.tensor.tensor.set_active_tape`
    (use the :func:`recording` context manager).  ``steps`` is the replay
    program in recording order: the ops' replay thunks and recorded side
    effects (e.g. BatchNorm running-buffer updates).
    """

    __slots__ = ("nodes", "steps", "view_ops", "invalid_reason")

    def __init__(self) -> None:
        self.nodes: List[Tensor] = []
        self.steps: List[Callable[[], None]] = []
        self.view_ops: int = 0
        self.invalid_reason: Optional[str] = None

    @property
    def valid(self) -> bool:
        return self.invalid_reason is None

    def invalidate(self, reason: str) -> None:
        if self.invalid_reason is None:
            self.invalid_reason = reason

    def record_node(self, node: Tensor, replay) -> None:
        self.nodes.append(node)
        if replay is _NO_REPLAY:
            self.invalidate(f"op {node.op!r} has no replay rule")
            return
        if replay is _VIEW_REPLAY:
            self.view_ops += 1
            return
        self.steps.append(replay)

    def record_effect(self, effect: Callable[[], None]) -> None:
        self.steps.append(effect)


@contextlib.contextmanager
def recording(tape: Tape):
    """Install ``tape`` as the active recording target for the enclosed block."""
    previous = set_active_tape(tape)
    try:
        yield tape
    finally:
        set_active_tape(previous)


class TapeReplayer:
    """Re-execute a recorded iteration against refreshed input buffers.

    Parameters
    ----------
    tape:
        A valid :class:`Tape` recorded over one eager iteration.
    loss:
        The loss tensor produced during recording; replay seeds its gradient
        and walks the recorded graph backward from it.
    seed_grad:
        The gradient seed used every replay (defaults to ones like the loss,
        matching ``loss.backward(np.ones(P))`` on the eager path).  The array
        is never mutated, so one allocation serves all replays.
    """

    __slots__ = ("_program", "_topo", "_loss", "_seed", "stats")

    def __init__(self, tape: Tape, loss: Tensor,
                 seed_grad: Optional[np.ndarray] = None) -> None:
        if not tape.valid:
            raise ValueError(f"cannot replay an invalid tape: {tape.invalid_reason}")
        if loss._backward is None:
            raise ValueError("loss tensor has no backward closure; was it recorded?")
        self._program = list(tape.steps)
        self._topo = backward_order(loss)
        self._loss = loss
        if seed_grad is None:
            seed_grad = np.ones_like(loss.data)
        else:
            seed_grad = np.asarray(seed_grad, dtype=loss.data.dtype)
            if seed_grad.shape != loss.data.shape:
                raise ValueError(f"seed gradient shape {seed_grad.shape} does not "
                                 f"match loss shape {loss.data.shape}")
        self._seed = seed_grad
        self.stats = {
            "recorded_ops": len(tape.nodes),
            "view_ops": tape.view_ops,
            "replay_steps": len(self._program),
        }

    def replay(self) -> np.ndarray:
        """Run forward + backward; returns the refreshed loss array.

        The caller must have copied this iteration's inputs/targets into the
        recorded input buffers (in place) beforehand, and reads gradients from
        the same pinned flat-buffer views as on the eager path.
        """
        for step in self._program:
            step()
        loss = self._loss
        loss._accumulate(self._seed)
        for node in reversed(self._topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
            if node._parents:
                node.grad = None
        return loss.data
