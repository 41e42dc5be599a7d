"""Mid-run checkpoint save/restore of the virtual clock and async strategy
state: a resumed run must continue the simulated timeline and the parameter
trajectory bit for bit (satellite: sim/async checkpointing)."""

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainerConfig, load_checkpoint, save_checkpoint
from repro.core.callbacks import Callback
from repro.core.flatten import flatten_parameters


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
        assert resumed.metrics.simulated_time_s == \
            uninterrupted.metrics.simulated_time_s

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
        engine, restored = trainer.sim_engine, fresh.sim_engine
        assert restored.clock.now == engine.clock.now
        assert restored.clock.pending() == engine.clock.pending()
        assert restored.total_steps == engine.total_steps
        assert restored.batches_consumed == engine.batches_consumed
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
        assert resumed.lockstep_sim.now == original.lockstep_sim.now > 0.0

        original.train()
        resumed.train()
        assert np.array_equal(final_params(original), final_params(resumed))
        assert resumed.lockstep_sim.iterations == original.lockstep_sim.iterations
        assert resumed.lockstep_sim.compute_model.step_counts == \
            original.lockstep_sim.compute_model.step_counts
        assert resumed.lockstep_sim.now == original.lockstep_sim.now
        assert resumed.lockstep_sim.report.epoch_time_s == \
            original.lockstep_sim.report.epoch_time_s

    def test_lockstep_simulator_round_trips(self, tmp_path):
        trainer = make_trainer(stop_after=1)
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        fresh = make_trainer()
        load_checkpoint(fresh, path)
        assert fresh.lockstep_sim.now == trainer.lockstep_sim.now
        assert fresh.lockstep_sim.iterations == trainer.lockstep_sim.iterations
        assert fresh.lockstep_sim.compute_model.step_counts == \
            trainer.lockstep_sim.compute_model.step_counts

    def test_plain_checkpoints_still_load_into_simulated_trainers(self, tmp_path):
        """A checkpoint written without any sim state (older run / no compute
        model) must load cleanly when the target trainer has no sim either."""
        plain = make_trainer(epochs=1, compute_model=None)
        plain.train()
        path = save_checkpoint(plain, tmp_path / "ckpt.npz")
        fresh = make_trainer(epochs=1, compute_model=None)
        load_checkpoint(fresh, path)
        assert fresh.sim_report is None
