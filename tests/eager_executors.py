"""Eager oracles for the batched executors.

The executors in :mod:`repro.core.batched_replicas` record each input
signature's batched graph on a tape (or, for the hand-derived MLP, plan a
workspace for it) and replay it afterwards.  The subclasses here never
record: each ``forward_backward`` is the plain eager batched pass, verbatim
as the executors ran it before record/replay became their only mode.  Every
replay must equal them bit for bit — gradients, losses, BatchNorm running
buffers and carried LSTM state.
"""

from typing import List, Tuple

import numpy as np

from repro.core.batched_replicas import (
    BatchedAutogradExecutor,
    BatchedLanguageModelExecutor,
    BatchedReplicaExecutor,
)
from repro.tensor import Tensor, functional as F


class EagerReplicaExecutor(BatchedReplicaExecutor):
    """The MLP executor with a fresh allocation per intermediate."""

    def forward_backward(self, inputs: np.ndarray, targets: np.ndarray) -> List[float]:
        """Cross-entropy forward + backward for every replica at once.

        ``inputs`` is the stacked per-replica batch ``(P, B, ...)`` and
        ``targets`` the integer labels ``(P, B)``.  Layer gradients are
        written directly into the world's flat gradient matrix (zero-copy);
        the per-replica mean losses are returned.
        """
        P = self.world.world_size
        if inputs.shape[0] != P:
            raise ValueError(f"expected {P} replica batches, got {inputs.shape[0]}")
        batch = inputs.shape[1]
        X = np.asarray(inputs, dtype=np.float32).reshape(P, batch, -1)
        targets = np.asarray(targets, dtype=np.int64).reshape(P, batch)

        # ---- forward ---------------------------------------------------- #
        caches: List[Tuple] = []
        for kind, weights, biases, _, _ in self._plan:
            if kind == "relu":
                mask = X > 0
                X = X * mask
                caches.append(("relu", mask))
            else:
                caches.append(("linear", X))
                X = np.matmul(X, weights.transpose(0, 2, 1))
                if biases is not None:
                    X = X + biases[:, None, :]
        logits = X                                            # (P, B, C)

        # ---- softmax cross-entropy (per replica) ------------------------ #
        shifted = logits - logits.max(axis=2, keepdims=True)
        exp = np.exp(shifted)
        sum_exp = exp.sum(axis=2, keepdims=True)
        log_probs = shifted - np.log(sum_exp)
        replica_index = np.arange(P)[:, None]
        batch_index = np.arange(batch)[None, :]
        losses = -log_probs[replica_index, batch_index, targets].mean(axis=1)

        dZ = exp / sum_exp
        dZ[replica_index, batch_index, targets] -= 1.0
        dZ /= batch

        # ---- backward ---------------------------------------------------- #
        for (kind, weights, biases, grad_w, grad_b), cache in zip(
                reversed(self._plan), reversed(caches)):
            if kind == "relu":
                dZ = dZ * cache[1]
            else:
                layer_input = cache[1]
                grad_w[...] = np.matmul(dZ.transpose(0, 2, 1), layer_input)
                if grad_b is not None:
                    grad_b[...] = dZ.sum(axis=1)
                dZ = np.matmul(dZ, weights)

        # Expose the freshly written flat storage through param.grad so the
        # looped optimizer path / introspection see the same gradients.
        for buffers in self.world.replica_buffers:
            buffers.attach_grads()
        return [float(value) for value in losses]


class EagerAutogradExecutor(BatchedAutogradExecutor):
    """The generic classifier executor without a tape."""

    def forward_backward(self, inputs: np.ndarray, targets: np.ndarray) -> List[float]:
        P = self.stack.world_size
        inputs = np.asarray(inputs, dtype=np.float32)
        if inputs.shape[0] != P:
            raise ValueError(f"expected {P} replica batches, got {inputs.shape[0]}")
        self.stack.begin_iteration()
        logits = self.model.forward_batched(Tensor(inputs), self.stack)
        loss = F.cross_entropy_batched(logits, np.asarray(targets))
        loss.backward(np.ones(P, dtype=np.float32))
        self.stack.attach_grads()
        return [float(value) for value in loss.data]


class EagerLanguageModelExecutor(BatchedLanguageModelExecutor):
    """The truncated-BPTT executor without a tape."""

    def forward_backward(self, tokens: np.ndarray, targets: np.ndarray,
                         state) -> Tuple[List[float], object]:
        P = self.stack.world_size
        tokens = np.asarray(tokens)
        if tokens.shape[0] != P:
            raise ValueError(f"expected {P} replica batches, got {tokens.shape[0]}")
        self.stack.begin_iteration()
        logits, new_state = self.model.forward_batched(tokens, state, stack=self.stack)
        targets = np.asarray(targets).reshape(P, -1)
        loss = F.cross_entropy_batched(logits, targets)
        loss.backward(np.ones(P, dtype=np.float32))
        self.stack.attach_grads()
        return ([float(value) for value in loss.data],
                self.model.detach_state(new_state))


#: Executor class -> its eager oracle.
EAGER_ORACLE = {
    BatchedReplicaExecutor: EagerReplicaExecutor,
    BatchedAutogradExecutor: EagerAutogradExecutor,
    BatchedLanguageModelExecutor: EagerLanguageModelExecutor,
}


def use_eager_executor(trainer) -> None:
    """Swap a freshly built trainer's executor for its eager oracle."""
    trainer.executor = EAGER_ORACLE[type(trainer.executor)](
        trainer.replicas, trainer.flat_world)
