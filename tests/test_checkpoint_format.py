"""The checkpoint's key set, pinned per owner family.

``core/checkpoint.py`` is two loops over ``trainer.checkpoint_owners``; what
lands in the ``.npz`` is decided by the owners and their prefixes.  A file
loads only under the format version it was written with, so every key each
family writes is spelled out here: renaming, dropping or adding one is a
format change — it has to show up as an edit to this file and a new
``FORMAT_VERSION``.
"""

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainerConfig, load_checkpoint, save_checkpoint

BASE = dict(model="fnn3", preset="tiny", algorithm="a2sgd", world_size=2, epochs=1,
            batch_size=8, max_iterations_per_epoch=3, num_train=128, num_test=32, seed=0)

#: Written by every run: the format version, progress counters + the metric
#: history columns.
HISTORY = ["format_version", "epoch_history", "loss_history", "metric_history",
           "metrics_active_clients", "metrics_cohort_fraction", "metrics_rejected",
           "metrics_sim_time", "metrics_staleness", "metrics_unique_clients",
           "progress"]


#: Written by every run: the simulator's iteration timeline.
SIM_TIMELINE = ["sim_timeline_aggregation_s", "sim_timeline_communication_s",
                "sim_timeline_compression_s", "sim_timeline_compute_s",
                "sim_timeline_fault_s", "sim_timeline_iterations"]

#: Written by every synchronous run: the simulator on its barrier schedule.
LOCKSTEP_SIM = ["sim_busy_s", "sim_clock_now", "sim_comm_s", "sim_draws",
                "sim_epoch_losses", "sim_epoch_marks", "sim_iterations",
                "sim_stall_s", "sim_steps_per_rank"] + SIM_TIMELINE

#: Written by every run whose ranks read loaders: each stream's latest pass.
STREAMS = ["sim_stream_cursor", "sim_stream_words"]


def world_rows(world_size: int, tensors: int) -> list:
    """Per rank: parameters, lr and one momentum array per parameter tensor;
    and, since every file here is written after ``train()``, the rows it
    ended on before the consensus step."""
    keys = ["worker_rows"]
    for rank in range(world_size):
        keys += [f"params_{rank}", f"opt_lr_{rank}"]
        keys += [f"opt_velocity_{rank}_{index}" for index in range(tensors)]
    return keys


def module_buffers(world_size: int, buffers: int) -> list:
    """Per rank: one array per module buffer (BatchNorm running stats)."""
    return [f"buffers_{rank}_{index}" for rank in range(world_size)
            for index in range(buffers)]


#: family -> (config overrides, every key the file holds)
FAMILIES = {
    # vgg16's Table-1 policy selects LARS; 41 parameter tensors and 13
    # BatchNorm layers' running mean / var.
    "a2sgd_lars": (
        dict(model="vgg16", batch_size=2, max_iterations_per_epoch=1,
             num_train=16, num_test=4),
        HISTORY + LOCKSTEP_SIM + STREAMS + world_rows(2, 41) + module_buffers(2, 26)),
    "topk_residual": (
        dict(algorithm="topk", compressor_kwargs={"ratio": 0.05}),
        HISTORY + LOCKSTEP_SIM + STREAMS + world_rows(2, 8)
        + ["compressor_residual_0", "compressor_residual_1"]),
    # A stochastic compressor's generator is saved by its state, beside its
    # error-feedback residual.
    "qsgd_generator": (
        dict(algorithm="qsgd"),
        HISTORY + LOCKSTEP_SIM + STREAMS + world_rows(2, 8)
        + ["compressor_residual_0", "compressor_residual_1",
           "compressor_rng_0", "compressor_rng_1"]),
    "gossip_topk_codec": (
        dict(algorithm="dense", world_size=3,
             sync={"strategy": "gossip", "topology": "ring",
                   "parameter_compression": "topk",
                   "parameter_compression_kwargs": {"ratio": 0.05}}),
        HISTORY + LOCKSTEP_SIM + STREAMS + world_rows(3, 8)
        + ["sync_param_references", "sync_param_residual_0",
           "sync_param_residual_1", "sync_param_residual_2"]),
    "async_ps": (
        dict(algorithm="dense", sync={"strategy": "async_ps"}),
        HISTORY + world_rows(2, 8)
        + ["sim_busy_s", "sim_clock_now", "sim_comm_s", "sim_draws",
           "sim_epoch_losses", "sim_epoch_marks", "sim_event_mask",
           "sim_next_time", "sim_primed", "sim_rejected", "sim_staleness_counts",
           "sim_staleness_keys", "sim_stall_s", "sim_steps_per_rank",
           "sim_total_steps"] + STREAMS + SIM_TIMELINE + [
           "sync_async_pull_versions", "sync_async_rejected_pushes",
           "sync_async_server_params", "sync_async_server_velocity",
           "sync_async_staleness_counts", "sync_async_staleness_keys",
           "sync_async_version"]),
    "transient_blackout": (
        dict(world_size=4, epochs=2, max_iterations_per_epoch=4,
             faults={"model": "transient_blackout"}, fault_seed=9),
        HISTORY + world_rows(4, 8)
        + ["fault_downtime_marks", "fault_membership_alive",
           "fault_message_counters", "fault_needs_catchup",
           "fault_report_down_transitions", "fault_report_downtime_s",
           "fault_report_rejoins", "fault_report_resync_bytes",
           "fault_report_scalars", "fault_stall_counters"]
        + LOCKSTEP_SIM + STREAMS),
    # N=6 clients on K=2 slots: two swapped-out clients are parked.  A
    # batch is a function of (seed, client, iteration), so no stream is saved.
    "fedavg_sampled": (
        dict(algorithm="dense", max_iterations_per_epoch=4, num_train=256,
             sync={"strategy": "fedavg", "period": 2},
             clients={"num_clients": 6, "sampler": "uniform", "sampler_seed": 7}),
        HISTORY + LOCKSTEP_SIM + world_rows(2, 8)
        + ["clients_assignment", "clients_round", "clients_seen",
           "clients_store_1_velocity", "clients_store_4_velocity"]),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_key_set_is_pinned(family, tmp_path):
    overrides, expected = FAMILIES[family]
    with DistributedTrainer(TrainerConfig(**{**BASE, **overrides})) as trainer:
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
    with np.load(path) as data:
        assert sorted(data.files) == sorted(expected)


def test_a_new_owner_only_registers_itself(tmp_path):
    """The extension point: implement the two methods, append
    ``(prefix, owner)`` — ``checkpoint.py`` is not edited."""

    class Counter:
        value = 0

        def state_arrays(self):
            return {"value": np.array([self.value], dtype=np.int64)}

        def load_state_arrays(self, arrays):
            self.value = int(arrays["value"][0])

    trainer = DistributedTrainer(TrainerConfig(**BASE))
    counter = Counter()
    counter.value = 41
    trainer.checkpoint_owners.append(("counter_", counter))
    path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
    with np.load(path) as data:
        assert data["counter_value"].tolist() == [41]

    fresh = DistributedTrainer(TrainerConfig(**BASE))
    restored = Counter()
    fresh.checkpoint_owners.append(("counter_", restored))
    load_checkpoint(fresh, path)
    assert restored.value == 41
    # A trainer without that owner still loads the file.
    load_checkpoint(DistributedTrainer(TrainerConfig(**BASE)), path)
