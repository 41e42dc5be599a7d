"""The per-rank reference the flat ``(P, n)`` pipeline is tested against.

Until PR 22 these loops lived in ``src/`` behind ``fused_pipeline=False``;
they are the executable specification of Algorithm 1 lines 2-7 one rank at a
time: per-replica forward/backward (``_replica_step``, which no ``src/``
path runs, over the former per-module forward bodies of
``tests/reference_forward.py``), per-rank ``compress`` → collective →
per-rank ``decompress`` (the compressor bodies of
``tests/reference_compressors.py``), per-rank ``optimizer.step()``.  The
trainer under test must reproduce them bit for bit (allclose for the
hand-derived MLP executor).  Everything else — data, fault phase, parameter
phase, callbacks, checkpoints — is the trainer's own code, shared by both
sides.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_model import DEFAULT_COMPRESSION_MODEL
from repro.core.flat_buffer import segment_views
from repro.core.flatten import unflatten_into_gradients
from repro.core.timeline import SyncReport
from repro.core.trainer import DistributedTrainer
from repro.tensor import Tensor
from tests import reference_compressors as oracle
from tests.reference_forward import cross_entropy, reference_forward


def exchange_per_rank(self, gradients: Sequence[np.ndarray]
                      ) -> Tuple[List[np.ndarray], SyncReport]:
    """The former per-rank ``AllreduceStrategy.exchange`` body as a free
    function over a bound strategy (``self``); its two helpers (gradient-list
    validation, ``GradientCorruption.apply_list``) inlined, the compressor
    calls pointed at the per-rank oracle bodies, and compression priced like
    the strategy prices it (one worker's analytic ``compression_time``)."""
    if len(gradients) != self.world.world_size:
        raise ValueError("one gradient per rank is required")
    n = int(np.asarray(gradients[0]).size)
    if any(np.asarray(g).size != n for g in gradients):
        raise ValueError("all ranks must contribute gradients of equal length")
    self._step += 1
    if self.corruption is not None:
        for rank in self.corruption.ranks:
            self.corruption.apply_vector(rank, gradients[rank])
    world_size = self.world.world_size
    alive = self.world.membership.alive_ranks()
    reference = self.compressors[0]
    exchange_kind = reference.exchange
    wire_bits = reference.wire_bits(n, len(alive))
    logical_bytes = wire_bits / 8.0

    # ---- compression (lines 3-4 of Algorithm 1) ---------------------- #
    payloads: List[Optional[np.ndarray]] = [None] * world_size
    contexts: List[Optional[Dict]] = [None] * world_size
    for rank in alive:
        payloads[rank], contexts[rank] = oracle.compress(
            self.compressors[rank], np.asarray(gradients[rank], dtype=np.float32))

    # ---- global exchange + aggregation (line 5) ---------------------- #
    exchanged, comm_time, wire_exchange, aggregation_time = self._combine(
        payloads, exchange_kind, logical_bytes)

    # ---- reconstruction (line 6) ------------------------------------- #
    new_gradients = [np.asarray(g, dtype=np.float32) for g in gradients]
    for rank in alive:
        rebuilt = oracle.decompress(self.compressors[rank], exchanged[rank], contexts[rank])
        new_gradients[rank] = np.asarray(rebuilt, dtype=np.float32)

    report = SyncReport(
        compression_time_s=DEFAULT_COMPRESSION_MODEL.compression_time(reference.name, n),
        comm_time_s=float(comm_time),
        wire_bits_per_worker=float(wire_bits),
        exchange=wire_exchange,
        aggregation_time_s=float(aggregation_time),
    )
    return new_gradients, report


class ReferenceTrainer(DistributedTrainer):
    """``DistributedTrainer`` with the three batched stages run per rank."""

    def _build(self, features, callbacks) -> None:
        super()._build(features, callbacks)
        self.executor = None        # stage 1: the per-replica _replica_step loop
        # Stage 3 steps one looped optimizer per rank; their momentum buffers
        # are views of the trainer's velocity rows, so rejoin resets, client
        # swaps and checkpoints (which only know the matrix) reach them.
        layout = self.flat_world.layout
        self.rank_optimizers = []
        for rank, replica in enumerate(self.replicas):
            optimizer = type(self.optimizer)(
                replica.parameters(), lr=self.base_lr, momentum=self.config.momentum,
                weight_decay=self.config.weight_decay)
            optimizer._velocity = dict(enumerate(
                segment_views(self._velocity_matrix[rank], layout)))
            self.rank_optimizers.append(optimizer)

    def _replica_step(self, rank: int, inputs, targets, state=None) -> tuple:
        """Forward → cross-entropy → backward → detach on one replica; the
        caller zeroes the gradients.  Returns ``(loss, carried BPTT state or
        None)``."""
        replica = self.replicas[rank]
        if self.spec.task == "language_model":
            logits, state = reference_forward(replica, inputs, state)
        else:
            logits = reference_forward(replica, Tensor(inputs))
        loss = cross_entropy(logits, targets)
        loss.backward()
        return loss.item(), None if state is None else replica.detach_state(state)

    def _gradients(self, batches, states) -> tuple:
        # Backward accumulates straight into the zeroed gradient matrix
        # through the parameters' pinned views; one carried state per rank.
        world = self.flat_world
        if states is None:
            states = [None] * len(batches)
        world.zero_grads()
        losses = []
        for rank, (inputs, targets) in enumerate(batches):
            loss, states[rank] = self._replica_step(rank, inputs, targets, states[rank])
            losses.append(loss)
        self._last_losses = np.asarray(losses, dtype=np.float64)
        return world.grad_matrix, float(np.mean(losses)), states

    def _exchange(self, G) -> tuple:
        strategy = self.sync_strategy
        if not type(strategy).exchanges_gradients(strategy.period):
            return strategy.exchange_batched(G)     # pass-through: no kernels run
        return exchange_per_rank(strategy, list(G))

    def _apply(self, new, epoch_progress: float) -> float:
        lr = max(self.lr_policy.lr_at(epoch_progress, self.base_lr), 1e-12)
        for optimizer in (self.optimizer, *self.rank_optimizers):
            optimizer.set_lr(lr)
        dead = self.world.membership.dead_ranks()
        for rank, (replica, optimizer) in enumerate(zip(self.replicas, self.rank_optimizers)):
            if rank in dead:
                continue  # a down rank takes no optimizer step
            unflatten_into_gradients(replica, new[rank])
            optimizer.step()
        return lr
