"""Checkpoint owners for the state the trainer holds directly.

Subsystems with a class of their own (parameter codec, simulators, async
strategies, fault injector, client population) implement ``state_arrays()`` /
``load_state_arrays(arrays)`` themselves; these three cover the rest.  The
ordered owner list is built in ``DistributedTrainer._build``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.compress.base import (
    COMPRESSOR_STATE_KINDS,
    compressor_state_arrays,
    restore_compressor_state,
)
from repro.core.flat_buffer import segment_views


class _TrainerOwner:
    def __init__(self, trainer):
        self.trainer = trainer


class WorldRows(_TrainerOwner):
    """Per rank: parameters, learning rate, momentum (one array per parameter
    tensor) and the compressor's retained error — Algorithm 1's three vectors,
    read from row ``rank`` of the ``(P, n)`` matrices — and the compressor's
    generator state.

    ``train()`` ends by replacing every row with the consensus, and keeps the
    rows from before that step for the next ``train()`` to continue from (the
    mean of equal float32 rows need not equal that row).  After ``train()``
    they are saved as ``worker_rows``."""

    def state_arrays(self) -> Dict[str, np.ndarray]:
        trainer = self.trainer
        world = trainer.flat_world
        arrays: Dict[str, np.ndarray] = {}
        if trainer._worker_rows is not None:
            arrays["worker_rows"] = trainer._worker_rows
        for rank in range(world.world_size):
            arrays[f"params_{rank}"] = world.param_matrix[rank].copy()
            arrays[f"opt_lr_{rank}"] = np.array([trainer.optimizer.lr], dtype=np.float64)
            velocity = segment_views(trainer._velocity_matrix[rank], world.layout)
            for index, view in enumerate(velocity):
                arrays[f"opt_velocity_{rank}_{index}"] = view.copy()
            for kind, value in compressor_state_arrays(trainer.compressors[rank]).items():
                arrays[f"compressor_{kind}_{rank}"] = value
        return arrays

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        trainer = self.trainer
        world = trainer.flat_world
        saved = sum(name.startswith("params_") for name in arrays)
        if saved != world.world_size:
            raise KeyError(f"checkpoint was saved with world_size={saved}, "
                           f"the trainer has world_size={world.world_size}")
        trainer.optimizer.set_lr(float(arrays["opt_lr_0"][0]))
        rows = arrays.get("worker_rows")
        trainer._worker_rows = None if rows is None else np.array(rows, dtype=np.float32)
        for rank in range(world.world_size):
            world.param_matrix[rank] = arrays[f"params_{rank}"]
            velocity = segment_views(trainer._velocity_matrix[rank], world.layout)
            for index, view in enumerate(velocity):
                view[...] = arrays[f"opt_velocity_{rank}_{index}"]
            restore_compressor_state(trainer.compressors[rank], {
                kind: arrays[f"compressor_{kind}_{rank}"]
                for kind in COMPRESSOR_STATE_KINDS
                if f"compressor_{kind}_{rank}" in arrays})


class ModuleBuffers(_TrainerOwner):
    """Per rank: the replica's module buffers (BatchNorm running statistics),
    in ``named_buffers`` order, as of the rank's last step (the simulator's
    schedule knows which steps an async wave took ahead of their events).
    They are no row of the flat world, so without them a resumed run would
    evaluate on fresh statistics.  Models without buffers write no keys."""

    def state_arrays(self) -> Dict[str, np.ndarray]:
        schedule = self.trainer.simulator.schedule
        return {f"{rank}_{index}": buffer.copy()
                for rank in range(len(self.trainer.replicas))
                for index, buffer in enumerate(schedule.buffers(rank))}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        for rank, replica in enumerate(self.trainer.replicas):
            for index, (_, buffer) in enumerate(replica.named_buffers()):
                buffer[...] = arrays[f"{rank}_{index}"]


class Progress(_TrainerOwner):
    """The iteration counter — which also puts the sync strategy's period
    phase (local-SGD's every-H schedule) back in step — and the metric history."""

    def state_arrays(self) -> Dict[str, np.ndarray]:
        trainer = self.trainer
        return {"progress": np.array([trainer._global_iteration,
                                      len(trainer.metrics.epochs)], dtype=np.int64),
                **trainer.metrics.state_arrays()}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        trainer = self.trainer
        trainer._global_iteration = int(arrays["progress"][0])
        trainer.sync_strategy.restore(trainer._global_iteration)
        trainer.metrics.load_state_arrays(arrays)
