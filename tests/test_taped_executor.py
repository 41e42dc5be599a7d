"""Taped record/replay execution must be bit-identical to the eager batched path.

The tape records the stacked replica graph on the first iteration of each
input signature and replays a peephole-fused program afterwards, swapping only
the input/target (and carried BPTT state) buffers.  Every covered model family
is pinned with ``assert_array_equal`` — gradients, losses, BatchNorm running
buffers and carried LSTM state — across multiple "epochs" (iteration batches
with state restarts), so a replay that drifts by even one ULP fails loudly.
"""

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainerConfig, load_checkpoint, save_checkpoint
from repro.core.batched_replicas import (
    BatchedAutogradExecutor,
    BatchedLanguageModelExecutor,
    BatchedReplicaExecutor,
    TapedAutogradExecutor,
    TapedLanguageModelExecutor,
    TapedReplicaExecutor,
    build_replica_executor,
)
from repro.core.flat_buffer import WorldFlatBuffers
from repro.core.flatten import flatten_parameters
from repro.models.fnn import FNN3
from repro.models.lstm_lm import LSTMLanguageModel
from repro.models.resnet import ResNet
from repro.models.vgg import VGG16


def tiny_fnn():
    return FNN3(input_dim=12, hidden_dims=(9, 9, 9), num_classes=4, seed=3)


def tiny_resnet():
    return ResNet(blocks_per_stage=1, base_channels=(4, 8, 16), num_classes=10,
                  in_channels=3, seed=5)


def tiny_vgg():
    return VGG16(num_classes=10, in_channels=3, width_multiplier=0.0625,
                 image_size=32, seed=5)


def tiny_lstm(num_layers=2, dropout=0.0):
    return LSTMLanguageModel(vocab_size=31, embedding_dim=8, hidden_size=7,
                             num_layers=num_layers, dropout=dropout, seed=3)


def make_deltas(maker, P, rng):
    """Per-replica weight perturbations (same divergence for both worlds)."""
    template = maker()
    return [[(0.01 * (i + 1)) * rng.standard_normal(p.data.shape).astype(np.float32)
             for p in template.parameters()] for i in range(P)]


def build_world(maker, P, deltas):
    replicas = [maker() for _ in range(P)]
    for replica, per_param in zip(replicas, deltas):
        for param, delta in zip(replica.parameters(), per_param):
            param.data += delta
    return replicas, WorldFlatBuffers(replicas)


class TestTapedClassificationParity:
    """grad_matrix, losses and BN buffers must match the eager batched path
    exactly, over enough iterations that every one after the first is a
    replay."""

    def run_pair(self, maker, eager_cls, taped_cls, batches, P):
        rng = np.random.default_rng(99)
        deltas = make_deltas(maker, P, rng)
        eager_replicas, eager_world = build_world(maker, P, deltas)
        taped_replicas, taped_world = build_world(maker, P, deltas)
        eager = build_replica_executor(eager_replicas, eager_world, "classification")
        taped = build_replica_executor(taped_replicas, taped_world, "classification",
                                       taped=True)
        assert isinstance(eager, eager_cls) and not isinstance(eager, taped_cls)
        assert isinstance(taped, taped_cls)
        for inputs, targets in batches:
            eager_losses = eager.forward_backward(inputs, targets)
            taped_losses = taped.forward_backward(inputs, targets)
            np.testing.assert_array_equal(taped_world.grad_matrix,
                                          eager_world.grad_matrix)
            assert taped_losses == eager_losses
        for eager_replica, taped_replica in zip(eager_replicas, taped_replicas):
            for (name, eager_buf), (_, taped_buf) in zip(
                    eager_replica.named_buffers(), taped_replica.named_buffers()):
                np.testing.assert_array_equal(taped_buf, eager_buf, err_msg=name)
        return taped

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_fnn3_bit_identical(self, P):
        rng = np.random.default_rng(7)
        batches = [(rng.standard_normal((P, 6, 12)).astype(np.float32),
                    rng.integers(0, 4, size=(P, 6))) for _ in range(4)]
        taped = self.run_pair(tiny_fnn, BatchedReplicaExecutor,
                              TapedReplicaExecutor, batches, P)
        assert taped.tape_stats == {"recorded": 1, "replays": 3, "eager": 0}

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_resnet_bit_identical_including_bn_buffers(self, P):
        rng = np.random.default_rng(7)
        batches = [(rng.standard_normal((P, 4, 3, 8, 8)).astype(np.float32),
                    rng.integers(0, 10, size=(P, 4))) for _ in range(4)]
        taped = self.run_pair(tiny_resnet, BatchedAutogradExecutor,
                              TapedAutogradExecutor, batches, P)
        assert taped.tape_stats == {"recorded": 1, "replays": 3, "eager": 0}

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_vgg_bit_identical(self, P):
        rng = np.random.default_rng(7)
        batches = [(rng.standard_normal((P, 2, 3, 32, 32)).astype(np.float32),
                    rng.integers(0, 10, size=(P, 2))) for _ in range(3)]
        taped = self.run_pair(tiny_vgg, BatchedAutogradExecutor,
                              TapedAutogradExecutor, batches, P)
        assert taped.tape_stats == {"recorded": 1, "replays": 2, "eager": 0}

    def test_second_signature_records_second_tape(self):
        """A trailing partial batch (different shape) gets its own tape."""
        P = 2
        rng = np.random.default_rng(11)
        deltas = make_deltas(tiny_resnet, P, rng)
        eager_replicas, eager_world = build_world(tiny_resnet, P, deltas)
        taped_replicas, taped_world = build_world(tiny_resnet, P, deltas)
        eager = BatchedAutogradExecutor(eager_replicas, eager_world)
        taped = TapedAutogradExecutor(taped_replicas, taped_world)
        shapes = [(P, 4, 3, 8, 8), (P, 2, 3, 8, 8), (P, 4, 3, 8, 8), (P, 2, 3, 8, 8)]
        for shape in shapes:
            inputs = rng.standard_normal(shape).astype(np.float32)
            targets = rng.integers(0, 10, size=shape[:2])
            assert (taped.forward_backward(inputs, targets)
                    == eager.forward_backward(inputs, targets))
            np.testing.assert_array_equal(taped_world.grad_matrix,
                                          eager_world.grad_matrix)
        assert taped.tape_stats == {"recorded": 2, "replays": 2, "eager": 0}


class TestTapedLSTMParity:
    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_carried_state_bit_identical_across_epochs(self, P):
        """Two epochs of two BPTT windows each: the replay must thread the
        carried (h, c) state and reset it at the epoch boundary exactly as
        the eager batched path does."""
        T, N = 4, 2
        rng = np.random.default_rng(21)
        deltas = make_deltas(tiny_lstm, P, rng)
        eager_replicas, eager_world = build_world(tiny_lstm, P, deltas)
        taped_replicas, taped_world = build_world(tiny_lstm, P, deltas)
        eager = build_replica_executor(eager_replicas, eager_world, "language_model")
        taped = build_replica_executor(taped_replicas, taped_world, "language_model",
                                       taped=True)
        assert isinstance(taped, TapedLanguageModelExecutor)
        windows = [(rng.integers(0, 31, size=(P, T, N)),
                    rng.integers(0, 31, size=(P, T, N))) for _ in range(2)]
        for _epoch in range(2):
            eager_state = taped_state = None
            for tokens, targets in windows:
                eager_losses, eager_state = eager.forward_backward(
                    tokens, targets, eager_state)
                taped_losses, taped_state = taped.forward_backward(
                    tokens, targets, taped_state)
                np.testing.assert_array_equal(taped_world.grad_matrix,
                                              eager_world.grad_matrix)
                assert taped_losses == eager_losses
                for (eh, ec), (th, tc) in zip(eager_state, taped_state):
                    np.testing.assert_array_equal(th.data, eh.data)
                    np.testing.assert_array_equal(tc.data, ec.data)
        # One tape serves both the fresh-state and carried-state iterations.
        assert taped.tape_stats == {"recorded": 1, "replays": 3, "eager": 0}

    def test_dropout_model_is_unsupported_like_eager(self):
        replicas = [tiny_lstm(dropout=0.5) for _ in range(2)]
        world = WorldFlatBuffers(replicas)
        assert build_replica_executor(replicas, world, "language_model",
                                      taped=True) is None


class TestTapedTrainerEquivalence:
    """End-to-end: taped=True must track taped=False (eager fused) bit for
    bit over full multi-epoch runs — compression, exchange and optimizer
    included."""

    MODELS = {
        "fnn3": dict(num_train=256, batch_size=16),
        "resnet20": dict(num_train=256),
        "vgg16": dict(num_train=64, batch_size=4, max_iterations_per_epoch=2),
        "lstm_ptb": dict(num_train=8000),
    }

    def run(self, model, taped, **overrides):
        base = dict(model=model, preset="tiny", algorithm="a2sgd", world_size=4,
                    epochs=2, max_iterations_per_epoch=3, num_test=64, seed=0,
                    taped=taped)
        base.update(overrides)
        trainer = DistributedTrainer(TrainerConfig(**base))
        metrics = trainer.train()
        params = np.stack([flatten_parameters(m) for m in trainer.replicas])
        return params, metrics, trainer

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_taped_training_is_bit_identical(self, model):
        overrides = self.MODELS[model]
        taped_params, taped_metrics, taped_trainer = self.run(model, True, **overrides)
        eager_params, eager_metrics, _ = self.run(model, False, **overrides)
        np.testing.assert_array_equal(taped_params, eager_params)
        assert taped_metrics.train_loss == eager_metrics.train_loss
        stats = getattr(taped_trainer.executor, "tape_stats", None)
        assert stats is not None and stats["replays"] > 0 and stats["eager"] == 0

    def test_taped_checkpoint_resume_stays_bit_identical(self, tmp_path):
        """Restoring a checkpoint into a taped trainer mid-stream (its tape
        already recorded, its buffers already warm) must continue exactly
        like the trainer that kept running: the replay reads parameters
        through the live flat-buffer views the checkpoint writes into."""
        def make():
            config = TrainerConfig(model="lstm_ptb", preset="tiny", algorithm="a2sgd",
                                   world_size=2, epochs=1, max_iterations_per_epoch=3,
                                   num_train=4000, num_test=64, seed=0,
                                   taped=True)
            return DistributedTrainer(config)

        original = make()
        original.train()
        path = save_checkpoint(original, tmp_path / "taped.npz")

        resumed = make()
        load_checkpoint(resumed, path)
        np.testing.assert_array_equal(
            np.stack([flatten_parameters(m) for m in resumed.replicas]),
            np.stack([flatten_parameters(m) for m in original.replicas]))

        # Continue both: the original replays its season-old tape against the
        # finalize-averaged parameters, the resumed one records afresh from
        # checkpoint state.  Identical state must give identical trajectories.
        original_metrics = original.train()
        resumed_metrics = resumed.train()
        np.testing.assert_array_equal(
            np.stack([flatten_parameters(m) for m in original.replicas]),
            np.stack([flatten_parameters(m) for m in resumed.replicas]))
        assert original_metrics.train_loss[-1] == resumed_metrics.train_loss[-1]
        assert isinstance(resumed.executor, TapedLanguageModelExecutor)
        assert resumed.executor.tape_stats["replays"] > 0

    def test_no_taped_flag_uses_eager_executor(self):
        _, _, trainer = self.run("resnet20", False, **self.MODELS["resnet20"])
        assert type(trainer.executor) is BatchedAutogradExecutor

    def test_taped_default_on(self):
        config = TrainerConfig(model="resnet20", preset="tiny", algorithm="a2sgd",
                               world_size=2, epochs=1, num_train=256, num_test=32)
        assert config.taped
        trainer = DistributedTrainer(config)
        assert isinstance(trainer.executor, TapedAutogradExecutor)
