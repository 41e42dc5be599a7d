"""Mid-run checkpoint save/restore of the virtual clock and async strategy
state: a resumed run must continue the simulated timeline and the parameter
trajectory bit for bit (satellite: sim/async checkpointing)."""

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainerConfig, load_checkpoint, save_checkpoint
from repro.core.callbacks import Callback
from repro.core.flatten import flatten_parameters
from repro.core.timeline import IterationTimeline


class StopAfterEpoch(Callback):
    """Interrupt training after ``epochs`` completed epochs (mid-run stop)."""

    def __init__(self, epochs: int):
        self.epochs = int(epochs)

    def on_epoch_end(self, state) -> None:
        if state.epoch + 1 >= self.epochs:
            state.stop_requested = True


def make_config(epochs: int = 2, **overrides) -> TrainerConfig:
    # epochs stays fixed across the interrupted and straight runs so both
    # build the identical LR schedule (total_epochs feeds the policy).
    base = dict(model="fnn3", preset="tiny", algorithm="dense", world_size=2,
                epochs=epochs, batch_size=8, max_iterations_per_epoch=4,
                num_train=128, num_test=32, seed=0,
                compute_model={"name": "lognormal", "sigma": 0.4}, clock_seed=7)
    base.update(overrides)
    return TrainerConfig(**base)


def make_trainer(stop_after: int = 0, **overrides) -> DistributedTrainer:
    callbacks = [StopAfterEpoch(stop_after)] if stop_after else None
    return DistributedTrainer(make_config(**overrides), callbacks=callbacks)


def final_params(trainer: DistributedTrainer) -> np.ndarray:
    return np.stack([flatten_parameters(m) for m in trainer.replicas])


SETUPS = {
    "async_ps": {"sync": {"strategy": "async_ps",
                          "strategy_kwargs": {"staleness_penalty": 0.9}}},
    "easgd": {"sync": {"strategy": "easgd", "period": 2}},
    # Nine steps per column make one BPTT window per pass, so no carried
    # state is live at the checkpoint (a resumed LM restarts its windows).
    "async_ps-lstm_ptb": {"model": "lstm_ptb", "algorithm": "a2sgd",
                          "num_train": 576, "num_test": 160, "seq_len": 8,
                          "batch_size": None, "sync": {"strategy": "async_ps"}},
    # BatchNorm: gradient waves update running statistics ahead of events.
    "async_ps-resnet20": {"model": "resnet20", "num_train": 64, "num_test": 16,
                          "batch_size": 4, "sync": {"strategy": "async_ps"}},
}


class TestResumedTrajectoriesAreBitIdentical:
    @pytest.mark.parametrize("label", sorted(SETUPS))
    def test_resume_matches_uninterrupted_run(self, label, tmp_path):
        overrides = SETUPS[label]

        uninterrupted = make_trainer(**overrides)
        uninterrupted.train()

        # Interrupt after epoch 1 of the same 2-epoch trajectory, save, and
        # resume in a fresh trainer configured for the full run.
        first_half = make_trainer(stop_after=1, **overrides)
        first_half.train()
        path = save_checkpoint(first_half, tmp_path / "ckpt.npz")
        resumed = make_trainer(**overrides)
        load_checkpoint(resumed, path)
        mid_time = resumed.simulated_time_s
        resumed.train()

        assert np.array_equal(final_params(uninterrupted), final_params(resumed))
        # The clock resumed from the checkpointed instant (not zero) and the
        # restored RNG stream positions reproduce the exact same timeline.
        assert mid_time > 0.0
        assert resumed.simulated_time_s == uninterrupted.simulated_time_s
        assert resumed.sim_report.steps_per_rank == \
            uninterrupted.sim_report.steps_per_rank
        assert resumed.sim_report.busy_s_per_rank == \
            uninterrupted.sim_report.busy_s_per_rank
        assert resumed.sim_report.comm_s_per_rank == \
            uninterrupted.sim_report.comm_s_per_rank
        assert resumed.sim_report.epoch_time_s == \
            uninterrupted.sim_report.epoch_time_s
        # Metrics history carries over: epoch-0 rows from the checkpoint,
        # epoch-1 rows recorded after the resume, matching the straight run.
        assert resumed.metrics.epochs == uninterrupted.metrics.epochs
        assert resumed.metrics.train_loss == uninterrupted.metrics.train_loss
        assert resumed.metrics.metric == uninterrupted.metrics.metric
        # Module buffers (BatchNorm running statistics) resume too.
        for mine, theirs in zip(resumed.replicas, uninterrupted.replicas):
            for (name, buffer), (_, expected) in zip(mine.named_buffers(),
                                                     theirs.named_buffers()):
                assert np.array_equal(buffer, expected), name
        assert resumed.metrics.simulated_time_s == \
            uninterrupted.metrics.simulated_time_s
        # The resumed trainer's executor recorded its program afresh.
        assert resumed.executor.tape_stats["recorded"] == 1

    @pytest.mark.parametrize("label", ["lockstep", "async_ps"])
    def test_resumed_timeline_matches_uninterrupted_run(self, label, tmp_path):
        overrides = SETUPS.get(label, {})
        uninterrupted = make_trainer(**overrides)
        uninterrupted.train()
        first_half = make_trainer(stop_after=1, **overrides)
        first_half.train()
        path = save_checkpoint(first_half, tmp_path / "ckpt.npz")
        resumed = make_trainer(**overrides)
        load_checkpoint(resumed, path)
        assert resumed.timeline.as_dict() == first_half.timeline.as_dict()
        resumed.train()
        # Each collective is priced from its own trace, so every term is the
        # uninterrupted run's exactly.
        assert resumed.timeline.as_dict() == uninterrupted.timeline.as_dict()

    @pytest.mark.parametrize("label", ["lockstep", "async_ps"])
    def test_checkpoints_without_a_timeline_load(self, label, tmp_path):
        """Files from before the timeline was saved resume the trajectory
        and the clock exactly; the timeline starts fresh at the resume."""
        overrides = SETUPS.get(label, {})
        first_half = make_trainer(stop_after=1, **overrides)
        first_half.train()
        path = save_checkpoint(first_half, tmp_path / "ckpt.npz")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files
                      if not name.startswith("sim_timeline_")}
        np.savez_compressed(tmp_path / "untimed.npz", **arrays)
        resumed = make_trainer(**overrides)
        load_checkpoint(resumed, tmp_path / "untimed.npz")
        assert resumed.timeline.as_dict() == IterationTimeline().as_dict()
        resumed.train()
        uninterrupted = make_trainer(**overrides)
        uninterrupted.train()
        assert np.array_equal(final_params(resumed), final_params(uninterrupted))
        assert resumed.simulated_time_s == uninterrupted.simulated_time_s
        steps = uninterrupted.timeline.iterations
        assert resumed.timeline.iterations == steps - first_half.timeline.iterations

    def test_async_ps_server_state_round_trips(self, tmp_path):
        trainer = make_trainer(stop_after=1, **SETUPS["async_ps"])
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        fresh = make_trainer(**SETUPS["async_ps"])
        load_checkpoint(fresh, path)
        original, restored = trainer.sync_strategy, fresh.sync_strategy
        np.testing.assert_array_equal(restored.server_params,
                                      original.server_params)
        np.testing.assert_array_equal(restored.server_velocity,
                                      original.server_velocity)
        np.testing.assert_array_equal(restored.pull_versions,
                                      original.pull_versions)
        assert restored.version == original.version
        assert restored.staleness_histogram == original.staleness_histogram
        assert restored.rejected_pushes == original.rejected_pushes

    def test_engine_clock_and_pending_events_round_trip(self, tmp_path):
        trainer = make_trainer(stop_after=1, **SETUPS["easgd"])
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        fresh = make_trainer(**SETUPS["easgd"])
        load_checkpoint(fresh, path)
        engine, restored = trainer.simulator, fresh.simulator
        assert restored.clock.now == engine.clock.now
        assert restored.clock.pending() == engine.clock.pending()
        assert restored.total_steps == engine.total_steps
        assert restored.schedule.batches_consumed == engine.schedule.batches_consumed
        assert restored.compute_model.step_counts == \
            engine.compute_model.step_counts
        np.testing.assert_array_equal(fresh.sync_strategy.center,
                                      trainer.sync_strategy.center)
        np.testing.assert_array_equal(fresh.sync_strategy.local_steps,
                                      trainer.sync_strategy.local_steps)

    def test_lockstep_priced_continuation_is_bit_identical(self, tmp_path):
        """The lockstep path resumes by calling train() again on restored
        state (the repo's established semantics); the simulated clock and
        the compute-model RNG stream must continue from the checkpointed
        instant, keeping both trajectory and pricing identical.  The LM data
        stream is deterministic per pass, so the continuation is exact."""
        lm = dict(model="lstm_ptb", algorithm="a2sgd", epochs=1,
                  num_train=800, num_test=160, seq_len=8, batch_size=None)
        original = make_trainer(**lm)
        resumed = make_trainer(**lm)
        original.train()
        path = save_checkpoint(original, tmp_path / "ckpt.npz")
        load_checkpoint(resumed, path)
        assert resumed.simulator.now == original.simulator.now > 0.0

        original.train()
        resumed.train()
        assert np.array_equal(final_params(original), final_params(resumed))
        assert resumed.simulator.total_steps == original.simulator.total_steps
        assert resumed.simulator.compute_model.step_counts == \
            original.simulator.compute_model.step_counts
        assert resumed.simulator.now == original.simulator.now
        assert resumed.simulator.report.epoch_time_s == \
            original.simulator.report.epoch_time_s

    def test_lockstep_simulator_round_trips(self, tmp_path):
        trainer = make_trainer(stop_after=1)
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        fresh = make_trainer()
        load_checkpoint(fresh, path)
        assert fresh.simulator.now == trainer.simulator.now
        assert fresh.simulator.total_steps == trainer.simulator.total_steps
        assert fresh.simulator.compute_model.step_counts == \
            trainer.simulator.compute_model.step_counts

    def test_clockless_checkpoints_load_and_resume(self, tmp_path):
        """Earlier commits gave a synchronous run without a compute model no
        clock, so its checkpoint holds no ``sim_*`` keys (and NaN simulated
        times).  Such a file still loads: the fresh clock starts at 0, and
        the resumed trajectory matches the uninterrupted run bit for bit."""
        interrupted = make_trainer(stop_after=1, compute_model=None)
        interrupted.train()
        path = save_checkpoint(interrupted, tmp_path / "ckpt.npz")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files
                      if not name.startswith("sim_")}
        arrays["metrics_sim_time"] = np.full_like(arrays["metrics_sim_time"], np.nan)
        clockless = tmp_path / "clockless.npz"
        np.savez_compressed(clockless, **arrays)

        resumed = make_trainer(compute_model=None)
        load_checkpoint(resumed, clockless)
        resumed.simulator.load_state_arrays({})
        assert resumed.simulated_time_s == 0.0
        assert resumed.simulator.total_steps == 0
        resumed.train()
        uninterrupted = make_trainer(compute_model=None)
        uninterrupted.train()
        assert np.array_equal(final_params(resumed), final_params(uninterrupted))
        assert resumed.metrics.train_loss == uninterrupted.metrics.train_loss
        # One epoch of four iterations ran on the fresh clock.
        assert resumed.simulator.total_steps == 4
        assert resumed.simulated_time_s > 0.0


class TestFilesWrittenAfterTrain:
    """``train()`` ends by replacing every row with the consensus; a file
    written after it keeps the rows from before that step, so the resumed
    run continues each rank's own trajectory (the mean of equal float32 rows
    need not be that row, and A2SGD's rows are not equal)."""

    CASES = {
        "a2sgd": dict(algorithm="a2sgd", world_size=4),
        "transient_blackout": dict(
            world_size=4, fault_seed=9,
            faults={"model": "transient_blackout",
                    "model_kwargs": {"mean_down_s": 0.02, "mean_up_s": 0.03}}),
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_resume_matches_uninterrupted_run(self, label, tmp_path):
        overrides = self.CASES[label]
        uninterrupted = make_trainer(**overrides)
        uninterrupted.train()
        first_half = make_trainer(stop_after=1, **overrides)
        first_half.train()
        path = save_checkpoint(first_half, tmp_path / "ckpt.npz")
        resumed = make_trainer(**overrides)
        load_checkpoint(resumed, path)
        # Loaded, the trainer holds what the saving one did: the consensus.
        assert np.array_equal(final_params(resumed), final_params(first_half))
        resumed.train()
        assert np.array_equal(final_params(uninterrupted), final_params(resumed))
        assert resumed.metrics.train_loss == uninterrupted.metrics.train_loss
        assert resumed.simulated_time_s == uninterrupted.simulated_time_s

    def test_earlier_async_files_continue_the_live_rows(self, tmp_path):
        """Earlier commits saved an async run's pre-consensus rows as
        ``async_worker_rows``; such a file resumes like a current one."""
        overrides = SETUPS["async_ps"]
        first_half = make_trainer(stop_after=1, **overrides)
        first_half.train()
        path = save_checkpoint(first_half, tmp_path / "ckpt.npz")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["async_worker_rows"] = arrays.pop("worker_rows")
        earlier = tmp_path / "earlier.npz"
        np.savez_compressed(earlier, **arrays)

        current, resumed = make_trainer(**overrides), make_trainer(**overrides)
        load_checkpoint(current, path)
        load_checkpoint(resumed, earlier)
        current.train()
        resumed.train()
        assert np.array_equal(final_params(current), final_params(resumed))
        assert resumed.metrics.train_loss == current.metrics.train_loss
