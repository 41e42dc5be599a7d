"""Record/replay execution must be bit-identical to the eager batched pass.

The executors record the stacked replica graph on the first iteration of each
input signature and replay the recorded program afterwards, swapping only
the input/target (and carried BPTT state) buffers.  Every covered model family
is pinned with ``assert_array_equal`` against the eager oracles of
``tests/eager_executors.py`` — gradients, losses, BatchNorm running buffers and
carried LSTM state — across multiple "epochs" (iteration batches with state
restarts), so a replay that drifts by even one ULP fails loudly.  So are the
two branches that run without a kept recording: signatures past the
recording cap, and graphs whose tape cannot be replayed.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import DistributedTrainer, TrainerConfig, load_checkpoint, save_checkpoint
from repro.core.batched_replicas import (
    _MAX_TAPES,
    BatchedAutogradExecutor,
    BatchedLanguageModelExecutor,
    build_replica_executor,
)
from repro.core.flat_buffer import WorldFlatBuffers
from repro.core.flatten import flatten_parameters
from repro.models.fnn import FNN3
from repro.models.lstm_lm import LSTMLanguageModel
from repro.models.resnet import ResNet
from repro.models.vgg import VGG16
from repro.tensor import Tensor

from tests.eager_executors import (
    EagerAutogradExecutor,
    EagerLanguageModelExecutor,
    EagerReplicaExecutor,
    use_eager_executor,
)


def tiny_fnn():
    return FNN3(input_dim=12, hidden_dims=(9, 9, 9), num_classes=4, seed=3)


def tiny_resnet():
    return ResNet(blocks_per_stage=1, base_channels=(4, 8, 16), num_classes=10,
                  in_channels=3, seed=5)


def tiny_vgg():
    return VGG16(num_classes=10, in_channels=3, width_multiplier=0.0625,
                 image_size=32, seed=5)


def tiny_lstm(num_layers=2):
    return LSTMLanguageModel(vocab_size=31, embedding_dim=8, hidden_size=7,
                             num_layers=num_layers, seed=3)


class WhereClassifier(nn.Module):
    """Linear → leaky ReLU → Linear, the leak written with ``Tensor.where``:
    a batched graph whose tape records an op with no replay rule."""

    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(12, 9)
        self.fc2 = nn.Linear(9, 4)

    def forward_batched(self, x, stack):
        hidden = self.fc1.forward_batched(x, stack)
        hidden = Tensor.where(hidden.data > 0, hidden, hidden * 0.1)
        return self.fc2.forward_batched(hidden, stack)


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


def run_against_oracle(maker, oracle_cls, calls, P, seed=99):
    """Drive the executor ``build_replica_executor`` picks and its eager
    oracle over identical worlds; every call's gradients and losses (and, at
    the end, every BatchNorm buffer) must match exactly.  ``calls`` are
    ``(inputs, targets)`` pairs; returns the executor under test."""
    deltas = make_deltas(maker, P, np.random.default_rng(seed))
    eager_replicas, eager_world = build_world(maker, P, deltas)
    replicas, world = build_world(maker, P, deltas)
    eager = oracle_cls(eager_replicas, eager_world)
    executor = build_replica_executor(replicas, world, "classification")
    assert type(executor) is oracle_cls.__base__
    for inputs, targets in calls:
        losses = executor.forward_backward(inputs, targets)
        assert losses == eager.forward_backward(inputs, targets)
        np.testing.assert_array_equal(world.grad_matrix, eager_world.grad_matrix)
    for eager_replica, replica in zip(eager_replicas, replicas):
        for (name, eager_buf), (_, buf) in zip(
                eager_replica.named_buffers(), replica.named_buffers()):
            np.testing.assert_array_equal(buf, eager_buf, err_msg=name)
    return executor


class TestTapedClassificationParity:
    """grad_matrix, losses and BN buffers must match the eager batched pass
    exactly, over enough iterations that every one after the first is a
    replay."""

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_fnn3_bit_identical(self, P):
        rng = np.random.default_rng(7)
        batches = [(rng.standard_normal((P, 6, 12)).astype(np.float32),
                    rng.integers(0, 4, size=(P, 6))) for _ in range(4)]
        taped = run_against_oracle(tiny_fnn, EagerReplicaExecutor, batches, P)
        assert taped.tape_stats == {"recorded": 1, "replays": 3, "eager": 0}

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_resnet_bit_identical_including_bn_buffers(self, P):
        rng = np.random.default_rng(7)
        batches = [(rng.standard_normal((P, 4, 3, 8, 8)).astype(np.float32),
                    rng.integers(0, 10, size=(P, 4))) for _ in range(4)]
        taped = run_against_oracle(tiny_resnet, EagerAutogradExecutor, batches, P)
        assert taped.tape_stats == {"recorded": 1, "replays": 3, "eager": 0}

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_vgg_bit_identical(self, P):
        rng = np.random.default_rng(7)
        batches = [(rng.standard_normal((P, 2, 3, 32, 32)).astype(np.float32),
                    rng.integers(0, 10, size=(P, 2))) for _ in range(3)]
        taped = run_against_oracle(tiny_vgg, EagerAutogradExecutor, batches, P)
        assert taped.tape_stats == {"recorded": 1, "replays": 2, "eager": 0}

    def test_second_signature_records_second_tape(self):
        """A trailing partial batch (different shape) gets its own tape."""
        P = 2
        rng = np.random.default_rng(11)
        shapes = [(P, 4, 3, 8, 8), (P, 2, 3, 8, 8), (P, 4, 3, 8, 8), (P, 2, 3, 8, 8)]
        batches = [(rng.standard_normal(shape).astype(np.float32),
                    rng.integers(0, 10, size=shape[:2])) for shape in shapes]
        taped = run_against_oracle(tiny_resnet, EagerAutogradExecutor, batches, P)
        assert taped.tape_stats == {"recorded": 2, "replays": 2, "eager": 0}


class TestRecordingCap:
    """Six distinct signatures, each seen twice: the first ``_MAX_TAPES``
    are recorded then replayed, the rest run eagerly both times — and every
    call still equals the oracle bit for bit."""

    SIGNATURES = 6

    def twice_each(self, make_batch):
        rng = np.random.default_rng(5)
        calls = [make_batch(rng, batch) for batch in range(1, self.SIGNATURES + 1)]
        return calls + calls

    def assert_capped(self, executor, kept):
        assert len(kept) == _MAX_TAPES
        overflow = self.SIGNATURES - _MAX_TAPES
        assert executor.tape_stats == {"recorded": _MAX_TAPES, "replays": _MAX_TAPES,
                                       "eager": 2 * overflow}

    def test_mlp(self):
        P = 2
        calls = self.twice_each(lambda rng, b: (
            rng.standard_normal((P, b, 12)).astype(np.float32),
            rng.integers(0, 4, size=(P, b))))
        executor = run_against_oracle(tiny_fnn, EagerReplicaExecutor, calls, P)
        self.assert_capped(executor, executor._workspaces)

    def test_autograd(self):
        P = 2
        calls = self.twice_each(lambda rng, b: (
            rng.standard_normal((P, b, 3, 8, 8)).astype(np.float32),
            rng.integers(0, 10, size=(P, b))))
        executor = run_against_oracle(tiny_resnet, EagerAutogradExecutor, calls, P)
        self.assert_capped(executor, executor._recordings)

    def test_language_model(self):
        P, T = 2, 3
        deltas = make_deltas(tiny_lstm, P, np.random.default_rng(99))
        eager_replicas, eager_world = build_world(tiny_lstm, P, deltas)
        replicas, world = build_world(tiny_lstm, P, deltas)
        eager = EagerLanguageModelExecutor(eager_replicas, eager_world)
        executor = build_replica_executor(replicas, world, "language_model")
        for tokens, targets in self.twice_each(lambda rng, n: (
                rng.integers(0, 31, size=(P, T, n)), rng.integers(0, 31, size=(P, T, n)))):
            # Carry state through one more window so the overflow branch
            # also takes a non-None state.
            state = eager_state = None
            for _window in range(2):
                losses, state = executor.forward_backward(tokens, targets, state)
                eager_losses, eager_state = eager.forward_backward(
                    tokens, targets, eager_state)
                assert losses == eager_losses
                np.testing.assert_array_equal(world.grad_matrix, eager_world.grad_matrix)
                for (h, c), (eh, ec) in zip(state, eager_state):
                    np.testing.assert_array_equal(h.data, eh.data)
                    np.testing.assert_array_equal(c.data, ec.data)
        assert len(executor._recordings) == _MAX_TAPES
        overflow = self.SIGNATURES - _MAX_TAPES
        assert executor.tape_stats == {"recorded": _MAX_TAPES,
                                       "replays": 3 * _MAX_TAPES,
                                       "eager": 4 * overflow}


class TestUnreplayableTape:
    def test_signature_stays_eager_and_matches_the_oracle(self):
        P = 2
        rng = np.random.default_rng(3)
        inputs = rng.standard_normal((P, 5, 12)).astype(np.float32)
        calls = [(inputs * scale, rng.integers(0, 4, size=(P, 5)))
                 for scale in (1.0, -0.5, 2.0)]
        executor = run_against_oracle(WhereClassifier, EagerAutogradExecutor, calls, P)
        assert executor._recordings == {inputs.shape: None}
        assert executor.tape_stats == {"recorded": 0, "replays": 0, "eager": 3}


class TestTapedLSTMParity:
    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_carried_state_bit_identical_across_epochs(self, P):
        """Two epochs of two BPTT windows each: the replay must thread the
        carried (h, c) state and reset it at the epoch boundary exactly as
        the eager batched pass does."""
        T, N = 4, 2
        rng = np.random.default_rng(21)
        deltas = make_deltas(tiny_lstm, P, rng)
        eager_replicas, eager_world = build_world(tiny_lstm, P, deltas)
        taped_replicas, taped_world = build_world(tiny_lstm, P, deltas)
        eager = EagerLanguageModelExecutor(eager_replicas, eager_world)
        taped = build_replica_executor(taped_replicas, taped_world, "language_model")
        assert type(taped) is BatchedLanguageModelExecutor
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


class TestTapedTrainerEquivalence:
    """End-to-end: the recording executors must track the eager oracle bit
    for bit over full multi-epoch runs — compression, exchange and optimizer
    included."""

    MODELS = {
        "fnn3": dict(num_train=256, batch_size=16),
        "resnet20": dict(num_train=256),
        "vgg16": dict(num_train=64, batch_size=4, max_iterations_per_epoch=2),
        "lstm_ptb": dict(num_train=8000),
    }

    def run(self, model, eager, **overrides):
        base = dict(model=model, preset="tiny", algorithm="a2sgd", world_size=4,
                    epochs=2, max_iterations_per_epoch=3, num_test=64, seed=0)
        base.update(overrides)
        trainer = DistributedTrainer(TrainerConfig(**base))
        if eager:
            use_eager_executor(trainer)
        metrics = trainer.train()
        params = np.stack([flatten_parameters(m) for m in trainer.replicas])
        return params, metrics, trainer

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_taped_training_is_bit_identical(self, model):
        overrides = self.MODELS[model]
        taped_params, taped_metrics, taped_trainer = self.run(model, False, **overrides)
        eager_params, eager_metrics, _ = self.run(model, True, **overrides)
        np.testing.assert_array_equal(taped_params, eager_params)
        assert taped_metrics.train_loss == eager_metrics.train_loss
        stats = taped_trainer.executor.tape_stats
        assert stats["replays"] > 0 and stats["eager"] == 0

    def test_taped_checkpoint_resume_stays_bit_identical(self, tmp_path):
        """Restoring a checkpoint into a trainer mid-stream (its tape
        already recorded, its buffers already warm) must continue exactly
        like the trainer that kept running: the replay reads parameters
        through the live flat-buffer views the checkpoint writes into."""
        def make():
            config = TrainerConfig(model="lstm_ptb", preset="tiny", algorithm="a2sgd",
                                   world_size=2, epochs=1, max_iterations_per_epoch=3,
                                   num_train=4000, num_test=64, seed=0)
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
        assert isinstance(resumed.executor, BatchedLanguageModelExecutor)
        assert resumed.executor.tape_stats["replays"] > 0

    def test_executor_records_on_first_call(self):
        config = TrainerConfig(model="resnet20", preset="tiny", algorithm="a2sgd",
                               world_size=2, epochs=1, max_iterations_per_epoch=2,
                               num_train=256, num_test=32)
        trainer = DistributedTrainer(config)
        assert type(trainer.executor) is BatchedAutogradExecutor
        trainer.train()
        assert trainer.executor.tape_stats == {"recorded": 1, "replays": 1, "eager": 0}
