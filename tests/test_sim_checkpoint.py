"""Mid-run checkpoint save/restore of the virtual clock and async strategy
state: a resumed run must continue the simulated timeline and the parameter
trajectory bit for bit (satellite: sim/async checkpointing)."""

import numpy as np
import pytest

from repro.core import (
    CheckpointVersionError,
    DistributedTrainer,
    TrainerConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.callbacks import Callback
from repro.core.checkpoint import FORMAT_VERSION
from repro.core.flatten import flatten_parameters


class StopAfterEpoch(Callback):
    """Interrupt training after ``epochs`` completed epochs (mid-run stop)."""

    def __init__(self, epochs: int):
        self.epochs = int(epochs)

    def on_epoch_end(self, state) -> None:
        if state.epoch + 1 >= self.epochs:
            state.stop_requested = True


class SaveAndStopAt(Callback):
    """Write a checkpoint at the end of one iteration, then stop."""

    def __init__(self, epoch: int, iteration: int, path):
        self.at = (int(epoch), int(iteration))
        self.path = path

    def on_iteration_end(self, state) -> None:
        if (state.epoch, state.iteration) == self.at:
            save_checkpoint(state.trainer, self.path)
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
        # Every stream's saved state (generator words, cursor less the
        # batches drawn ahead) and every compute-model generator round-trip.
        saved, loaded = engine.schedule.state_arrays(), restored.schedule.state_arrays()
        assert sorted(saved) == sorted(loaded)
        for key in saved:
            np.testing.assert_array_equal(loaded[key], saved[key], err_msg=key)
        np.testing.assert_array_equal(restored.compute_model.generator_states(),
                                      engine.compute_model.generator_states())
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
        np.testing.assert_array_equal(
            resumed.simulator.compute_model.generator_states(),
            original.simulator.compute_model.generator_states())
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
        np.testing.assert_array_equal(fresh.simulator.compute_model.generator_states(),
                                      trainer.simulator.compute_model.generator_states())
        assert [loader.rng.bit_generator.state for loader in fresh.loaders] == \
            [loader.rng.bit_generator.state for loader in trainer.loaders]

    def test_a_file_written_mid_epoch_continues_at_its_iteration(self, tmp_path):
        """A lockstep file written inside epoch 1 resumes at the next
        iteration of that epoch, its streams continuing the passes they
        were in."""
        uninterrupted = make_trainer(algorithm="qsgd")
        uninterrupted.train()
        path = tmp_path / "ckpt.npz"
        interrupted = DistributedTrainer(make_config(algorithm="qsgd"),
                                         callbacks=[SaveAndStopAt(1, 2, path)])
        interrupted.train()
        resumed = make_trainer(algorithm="qsgd")
        load_checkpoint(resumed, path)
        assert resumed.simulator.schedule.start() == (1, 3)
        resumed.train()
        assert np.array_equal(final_params(uninterrupted), final_params(resumed))
        assert resumed.metrics.train_loss == uninterrupted.metrics.train_loss
        assert resumed.metrics.metric == uninterrupted.metrics.metric
        assert resumed.simulated_time_s == uninterrupted.simulated_time_s
        assert resumed.sim_report.epoch_time_s == uninterrupted.sim_report.epoch_time_s
        assert resumed.timeline.as_dict() == uninterrupted.timeline.as_dict()

    @pytest.mark.parametrize("label", ["async_ps", "async_ps-resnet20"])
    def test_an_async_file_written_mid_epoch_resumes_its_buffers(self, label, tmp_path):
        """A wave computes gradients — and BatchNorm running statistics —
        ahead of their events; a file written mid-epoch holds a pending
        rank's buffers as they were before that step, which the resumed run
        takes again.  (fnn3 has no buffers: the control cell.)"""
        overrides = SETUPS[label]
        uninterrupted = make_trainer(**overrides)
        uninterrupted.train()
        path = tmp_path / "ckpt.npz"
        interrupted = DistributedTrainer(make_config(**overrides),
                                         callbacks=[SaveAndStopAt(1, 3, path)])
        interrupted.train()
        resumed = make_trainer(**overrides)
        load_checkpoint(resumed, path)
        resumed.train()
        assert np.array_equal(final_params(uninterrupted), final_params(resumed))
        assert resumed.metrics.train_loss == uninterrupted.metrics.train_loss
        for mine, theirs in zip(resumed.replicas, uninterrupted.replicas):
            for (name, buffer), (_, expected) in zip(mine.named_buffers(),
                                                     theirs.named_buffers()):
                assert np.array_equal(buffer, expected), name


class TestFormatVersion:
    """A file of another format (or of none) is refused by name: earlier
    files hold replay counts that no reader honours any more."""

    @staticmethod
    def rewrite(source, target, **changes):
        with np.load(source) as data:
            arrays = {name: data[name] for name in data.files}
        arrays.update(changes)
        arrays = {name: value for name, value in arrays.items() if value is not None}
        np.savez_compressed(target, **arrays)
        return target

    def test_a_file_without_a_version_is_refused(self, tmp_path):
        path = save_checkpoint(make_trainer(), tmp_path / "ckpt.npz")
        earlier = self.rewrite(path, tmp_path / "earlier.npz", format_version=None)
        with pytest.raises(CheckpointVersionError,
                           match=f"format version none; this build reads version {FORMAT_VERSION}"):
            load_checkpoint(make_trainer(), earlier)

    def test_a_file_of_another_version_is_refused(self, tmp_path):
        path = save_checkpoint(make_trainer(), tmp_path / "ckpt.npz")
        other = self.rewrite(path, tmp_path / "other.npz",
                             format_version=np.array([FORMAT_VERSION + 1]))
        with pytest.raises(CheckpointVersionError,
                           match=f"format version {FORMAT_VERSION + 1}; "
                                 f"this build reads version {FORMAT_VERSION}"):
            load_checkpoint(make_trainer(), other)


class TestFilesWrittenAfterTrain:
    """``train()`` ends by replacing every row with the consensus; a file
    written after it keeps the rows from before that step, so the resumed
    run continues each rank's own trajectory (the mean of equal float32 rows
    need not be that row, and A2SGD's rows are not equal)."""

    CASES = {
        "a2sgd": dict(algorithm="a2sgd", world_size=4),
        # Stochastic compressors: their generators are part of the state.
        "qsgd": dict(algorithm="qsgd", world_size=4),
        "terngrad": dict(algorithm="terngrad", world_size=4),
        "randk": dict(algorithm="randk", world_size=4),
        "local_sgd-qsgd_codec": dict(
            world_size=4, sync={"strategy": "local_sgd", "period": 2,
                                "parameter_compression": "qsgd",
                                "parameter_compression_kwargs": {
                                    "levels": 16, "bucket_size": 64}}),
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
