"""Checkpointing for distributed training runs.

Long sweeps (the paper's 150-epoch VGG runs) need to survive interruption.
A checkpoint captures, for every simulated worker: the replica parameters,
the optimizer state (momentum buffers), and the compressor's error-feedback
residual — plus the trainer's progress counters, metric history and the
synchronization strategy's resume state (the step phase of periodic
schedules, and the parameter-delta codec's references + residuals when
``parameter_compression`` is configured).  Loading restores bit-identical
training state so a resumed run continues exactly where it stopped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import numpy as np

from repro.compress.base import compressor_state_arrays, restore_compressor_state
from repro.core.flatten import flatten_parameters, unflatten_into_parameters
from repro.core.trainer import DistributedTrainer


def save_checkpoint(trainer: DistributedTrainer, path: str | Path) -> Path:
    """Write the trainer's full state to an ``.npz`` checkpoint."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    arrays: Dict[str, np.ndarray] = {}
    for rank, replica in enumerate(trainer.replicas):
        arrays[f"params_{rank}"] = flatten_parameters(replica)
        optimizer_state = trainer.optimizers[rank].state_dict() if hasattr(
            trainer.optimizers[rank], "state_dict") else {"lr": trainer.optimizers[rank].lr,
                                                          "velocity": {}}
        arrays[f"opt_lr_{rank}"] = np.array([optimizer_state["lr"]], dtype=np.float64)
        for index, buffer in optimizer_state.get("velocity", {}).items():
            arrays[f"opt_velocity_{rank}_{index}"] = buffer
        for key, value in compressor_state_arrays(trainer.compressors[rank]).items():
            arrays[f"compressor_{key}_{rank}"] = value

    codec = getattr(trainer.sync_strategy, "parameter_codec", None)
    if codec is not None:
        for key, value in codec.state_arrays().items():
            arrays[f"sync_param_{key}"] = value

    # Virtual-clock state: the event clock + compute-model RNG positions of
    # the async engine, or the lockstep simulator's accumulated clock.
    sim = trainer.sim_engine if trainer.sim_engine is not None else trainer.lockstep_sim
    if sim is not None:
        for key, value in sim.state_arrays().items():
            arrays[f"sim_{key}"] = value
    # Async strategy server/center state (server params + velocity, staleness
    # bookkeeping, EASGD center + local-step phases).
    if trainer.is_async:
        for key, value in trainer.sync_strategy.state_arrays().items():
            arrays[f"sync_async_{key}"] = value
        # The per-rank worker rows: after train() the replicas hold the
        # finalized consensus, but resuming needs each rank's live vector
        # (its last pull / local state).  Mid-run saves read the live
        # matrix; post-train saves read the pre-finalize snapshot.
        rows = trainer._async_worker_rows
        arrays["async_worker_rows"] = (
            trainer.flat_world.param_matrix.copy() if rows is None else rows)

    # Fault-injection state: membership mask, fault-report counters and the
    # per-rank draw counters, so a run interrupted mid-blackout resumes with
    # the same ranks down and the same fault timeline ahead of it.
    if trainer.fault_injector is not None:
        for key, value in trainer.fault_injector.state_arrays().items():
            arrays[f"fault_{key}"] = value

    # Client-population state: round counters, the current slot assignment,
    # the seen-clients mask and every swapped-out client's parked slot state
    # (velocity, compressor residuals, codec reference).  The sampler itself
    # is stateless per round, so the counters fully determine future cohorts.
    if trainer.population is not None:
        for key, value in trainer.population.state_arrays().items():
            arrays[f"clients_{key}"] = value

    arrays["progress"] = np.array([trainer._global_iteration, len(trainer.metrics.epochs)],
                                  dtype=np.int64)
    arrays["metric_history"] = np.array(trainer.metrics.metric, dtype=np.float64)
    arrays["loss_history"] = np.array(trainer.metrics.train_loss, dtype=np.float64)
    arrays["epoch_history"] = np.array(trainer.metrics.epochs, dtype=np.int64)
    arrays["metrics_sim_time"] = np.array(trainer.metrics.simulated_time_s,
                                          dtype=np.float64)
    arrays["metrics_rejected"] = np.array(trainer.metrics.rejected_pushes,
                                          dtype=np.int64)
    arrays["metrics_staleness"] = np.array(trainer.metrics.mean_staleness,
                                           dtype=np.float64)
    arrays["metrics_active_clients"] = np.array(trainer.metrics.active_clients,
                                                dtype=np.int64)
    arrays["metrics_cohort_fraction"] = np.array(trainer.metrics.cohort_fraction,
                                                 dtype=np.float64)
    arrays["metrics_unique_clients"] = np.array(trainer.metrics.unique_clients_seen,
                                                dtype=np.int64)
    np.savez_compressed(path, **arrays)
    return path


def load_checkpoint(trainer: DistributedTrainer, path: str | Path) -> DistributedTrainer:
    """Restore a trainer's state from :func:`save_checkpoint` output.

    The trainer must have been constructed with the same configuration
    (model, preset, world size); shape mismatches raise.
    """
    data = np.load(Path(path), allow_pickle=False)

    for rank, replica in enumerate(trainer.replicas):
        key = f"params_{rank}"
        if key not in data:
            raise KeyError(f"checkpoint is missing {key!r}; was it saved with "
                           f"world_size={len(trainer.replicas)}?")
        unflatten_into_parameters(replica, data[key])

        optimizer = trainer.optimizers[rank]
        optimizer.set_lr(float(data[f"opt_lr_{rank}"][0]))
        if hasattr(optimizer, "load_state_dict"):
            velocity = {}
            prefix = f"opt_velocity_{rank}_"
            for name in data.files:
                if name.startswith(prefix):
                    velocity[int(name[len(prefix):])] = data[name]
            optimizer.load_state_dict({"lr": optimizer.lr, "momentum": optimizer.momentum,
                                       "velocity": velocity})

        state = {}
        for kind in ("residual", "velocity"):
            key = f"compressor_{kind}_{rank}"
            if key in data:
                state[kind] = data[key]
        restore_compressor_state(trainer.compressors[rank], state)

    codec = getattr(trainer.sync_strategy, "parameter_codec", None)
    if codec is not None:
        prefix = "sync_param_"
        codec.load_state_arrays({name[len(prefix):]: data[name]
                                 for name in data.files if name.startswith(prefix)})

    sim = trainer.sim_engine if trainer.sim_engine is not None else trainer.lockstep_sim
    sim_state = {name[len("sim_"):]: data[name]
                 for name in data.files if name.startswith("sim_")}
    if sim is not None and "clock_now" in sim_state:
        sim.load_state_arrays(sim_state)
    if trainer.is_async:
        async_state = {name[len("sync_async_"):]: data[name]
                       for name in data.files if name.startswith("sync_async_")}
        if async_state:
            trainer.sync_strategy.load_state_arrays(async_state)
        if "async_worker_rows" in data:
            # Overwrite the finalized consensus written by the params_{rank}
            # restore above with each rank's live working vector.
            trainer.flat_world.param_matrix[:] = data["async_worker_rows"]

    fault_state = {name[len("fault_"):]: data[name]
                   for name in data.files if name.startswith("fault_")}
    if fault_state and trainer.fault_injector is not None:
        trainer.fault_injector.load_state_arrays(fault_state)

    clients_state = {name[len("clients_"):]: data[name]
                     for name in data.files if name.startswith("clients_")}
    if clients_state and trainer.population is not None:
        trainer.population.load_state_arrays(clients_state)

    progress = data["progress"]
    trainer._global_iteration = int(progress[0])
    # Keep the sync strategy's period phase (local-SGD's every-H schedule)
    # aligned with the restored iteration count.
    trainer.sync_strategy.restore(int(progress[0]))
    trainer.metrics.epochs = [int(v) for v in data["epoch_history"]]
    trainer.metrics.metric = [float(v) for v in data["metric_history"]]
    trainer.metrics.train_loss = [float(v) for v in data["loss_history"]]
    if "metrics_sim_time" in data:
        trainer.metrics.simulated_time_s = [float(v) for v in data["metrics_sim_time"]]
    if "metrics_rejected" in data:
        trainer.metrics.rejected_pushes = [int(v) for v in data["metrics_rejected"]]
        trainer.metrics.mean_staleness = [float(v) for v in data["metrics_staleness"]]
    if "metrics_active_clients" in data:
        trainer.metrics.active_clients = [int(v) for v in data["metrics_active_clients"]]
        trainer.metrics.cohort_fraction = [float(v)
                                           for v in data["metrics_cohort_fraction"]]
        trainer.metrics.unique_clients_seen = [int(v)
                                               for v in data["metrics_unique_clients"]]
    return trainer
