"""Tests for the pluggable trainer lifecycle (Callback protocol)."""

import math

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainerConfig
from repro.core.callbacks import (
    CALLBACKS,
    Callback,
    CallbackList,
    EarlyStoppingCallback,
    TrainState,
    resolve_callbacks,
)


def tiny_config(**overrides) -> TrainerConfig:
    base = dict(model="fnn3", preset="tiny", algorithm="a2sgd", world_size=2, epochs=2,
                seed=0, max_iterations_per_epoch=6, batch_size=16, num_train=256, num_test=64)
    base.update(overrides)
    return TrainerConfig(**base)


class RecordingCallback(Callback):
    """Counts every hook invocation and snapshots per-iteration state."""

    def __init__(self):
        self.counts = {name: 0 for name in
                       ("train_start", "epoch_start", "iteration_start",
                        "iteration_end", "epoch_end", "train_end")}
        self.losses = []
        self.lrs = []
        self.global_iterations = []

    def on_train_start(self, state):
        self.counts["train_start"] += 1

    def on_epoch_start(self, state):
        self.counts["epoch_start"] += 1

    def on_iteration_start(self, state):
        self.counts["iteration_start"] += 1

    def on_iteration_end(self, state):
        self.counts["iteration_end"] += 1
        self.losses.append(state.loss)
        self.lrs.append(state.lr)
        self.global_iterations.append(state.global_iteration)

    def on_epoch_end(self, state):
        self.counts["epoch_end"] += 1

    def on_train_end(self, state):
        self.counts["train_end"] += 1


class TestHookInvocation:
    """The acceptance claim: a user callback observes every iteration of a
    2-epoch run without modifying core/trainer.py."""

    def test_every_iteration_observed(self):
        recorder = RecordingCallback()
        trainer = DistributedTrainer(tiny_config(), callbacks=[recorder])
        trainer.train()
        assert recorder.counts["train_start"] == 1
        assert recorder.counts["train_end"] == 1
        assert recorder.counts["epoch_start"] == 2
        assert recorder.counts["epoch_end"] == 2
        assert recorder.counts["iteration_start"] == 12
        assert recorder.counts["iteration_end"] == 12
        assert recorder.global_iterations == list(range(1, 13))
        assert all(np.isfinite(loss) for loss in recorder.losses)
        assert all(lr > 0 for lr in recorder.lrs)

    def test_language_model_path_fires_same_hooks(self):
        recorder = RecordingCallback()
        config = TrainerConfig(model="lstm_ptb", preset="tiny", algorithm="a2sgd",
                               world_size=2, epochs=2, seed=0, max_iterations_per_epoch=3,
                               seq_len=8, num_train=3000, num_test=600)
        DistributedTrainer(config, callbacks=[recorder]).train()
        assert recorder.counts["iteration_end"] == 6
        assert recorder.counts["epoch_end"] == 2

    def test_callbacks_run_in_order_after_builtins(self):
        order = []

        class First(Callback):
            def on_epoch_end(self, state):
                # Built-in metrics callback has already recorded the epoch row.
                order.append(("first", len(state.metrics.epochs)))

        class Second(Callback):
            def on_epoch_end(self, state):
                order.append(("second", len(state.metrics.epochs)))

        trainer = DistributedTrainer(tiny_config(epochs=1), callbacks=[First(), Second()])
        trainer.train()
        assert order == [("first", 1), ("second", 1)]

    def test_metric_value_populated_before_user_hook(self):
        seen = []

        class Observer(Callback):
            def on_epoch_end(self, state):
                seen.append(state.metric_value)

        DistributedTrainer(tiny_config(epochs=2), callbacks=[Observer()]).train()
        assert len(seen) == 2
        assert all(0.0 <= value <= 100.0 for value in seen)

    def test_state_exposes_trainer_views(self):
        checked = []

        class Inspect(Callback):
            def on_iteration_end(self, state):
                assert len(state.replicas) == state.world_size == 2
                assert state.flat_buffers is state.trainer.flat_world
                assert state.trainer.sync_strategy.world is state.trainer.world
                assert state.report is not None
                checked.append(True)

        DistributedTrainer(tiny_config(epochs=1), callbacks=[Inspect()]).train()
        assert checked

    def test_results_identical_with_and_without_observer(self):
        plain = DistributedTrainer(tiny_config()).train()
        observed = DistributedTrainer(tiny_config(),
                                      callbacks=[RecordingCallback()]).train()
        assert plain.metric == observed.metric
        assert plain.train_loss == observed.train_loss


class TestEvaluationCadence:
    def test_eval_every_two_carries_metric_forward(self):
        trainer = DistributedTrainer(tiny_config(epochs=3, eval_every=2))
        metrics = trainer.train()
        # Epoch 0: carried (NaN history -> evaluated only on cadence); epochs
        # are recorded either way and the last epoch always evaluates.
        assert len(metrics.metric) == 3
        assert math.isnan(metrics.metric[0])
        assert metrics.metric[1] == metrics.metric[1]  # evaluated (not NaN)
        assert not math.isnan(metrics.metric[-1])


class TestStopRequest:
    def test_early_stopping_callback_stops_training(self):
        class AlwaysWorse(Callback):
            # Force the metric to look stale by zeroing it after recording.
            def on_epoch_end(self, state):
                state.metric_value = 10.0

        stopper = EarlyStoppingCallback(patience=1)
        trainer = DistributedTrainer(tiny_config(epochs=10, max_iterations_per_epoch=2),
                                     callbacks=[AlwaysWorse(), stopper])
        metrics = trainer.train()
        # First epoch sets the best; the second is no improvement -> stop.
        assert len(metrics.epochs) < 10

    def test_iteration_level_stop_breaks_epoch(self):
        class StopAtThree(Callback):
            def on_iteration_end(self, state):
                if state.global_iteration == 3:
                    state.request_stop()

        trainer = DistributedTrainer(tiny_config(epochs=5), callbacks=[StopAtThree()])
        trainer.train()
        assert trainer.timeline.iterations == 3
        # The partial epoch is still recorded and the replicas still sync.
        assert len(trainer.metrics.epochs) == 1


class TestStragglerStyleInjection:
    def test_gradient_perturbation_changes_training(self):
        class GradientNoise(Callback):
            """Worker-0 noise injection through the TrainState view."""

            def on_iteration_start(self, state):
                rng = np.random.default_rng(state.global_iteration)
                if state.flat_buffers is not None:
                    state.flat_buffers.param_matrix[0] += \
                        rng.standard_normal(state.flat_buffers.param_matrix.shape[1]) * 1e-3

        clean = DistributedTrainer(tiny_config()).train()
        noisy = DistributedTrainer(tiny_config(), callbacks=[GradientNoise()]).train()
        assert clean.train_loss != noisy.train_loss


class TestResolveCallbacks:
    def test_accepts_instances_names_and_dicts(self):
        instance = RecordingCallback()
        resolved = resolve_callbacks([instance, "progress",
                                      {"name": "early_stopping", "patience": 2}])
        assert resolved[0] is instance
        assert type(resolved[1]).__name__ == "ProgressCallback"
        assert resolved[2].patience == 2

    def test_unknown_name_raises_with_options(self):
        with pytest.raises(KeyError, match="unknown callback"):
            resolve_callbacks(["does_not_exist"])

    def test_dict_without_name_key(self):
        with pytest.raises(ValueError, match="missing the 'name' key"):
            resolve_callbacks([{"patience": 2}])

    def test_non_callback_rejected(self):
        with pytest.raises(TypeError):
            resolve_callbacks([42])

    def test_callback_list_type_checks(self):
        with pytest.raises(TypeError):
            CallbackList([object()])


class TestCheckpointCallback:
    def test_periodic_checkpoints_written(self, tmp_path):
        path = tmp_path / "ck.npz"
        trainer = DistributedTrainer(
            tiny_config(epochs=2),
            callbacks=[{"name": "checkpoint", "path": str(path), "every_epochs": 1}])
        trainer.train()
        assert path.exists()

    def test_registry_has_descriptions(self):
        descriptions = CALLBACKS.describe()
        assert all(descriptions[name] for name in ("progress", "checkpoint",
                                                   "early_stopping"))
