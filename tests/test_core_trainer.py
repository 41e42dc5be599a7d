"""Integration tests for the distributed trainer (Algorithm 1 end to end)."""

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainerConfig
from repro.core.flatten import flatten_parameters


def tiny_config(**overrides) -> TrainerConfig:
    base = dict(model="fnn3", preset="tiny", algorithm="a2sgd", world_size=2, epochs=2,
                seed=0, max_iterations_per_epoch=6, batch_size=16, num_train=256, num_test=64)
    base.update(overrides)
    return TrainerConfig(**base)


class TestConstruction:
    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            DistributedTrainer(tiny_config(world_size=0))

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            DistributedTrainer(tiny_config(epochs=0))

    def test_replicas_start_identical(self):
        trainer = DistributedTrainer(tiny_config(world_size=3))
        flats = [flatten_parameters(m) for m in trainer.replicas]
        for other in flats[1:]:
            np.testing.assert_array_equal(flats[0], other)

    def test_one_compressor_per_worker(self):
        trainer = DistributedTrainer(tiny_config(world_size=3))
        assert len(trainer.compressors) == 3
        assert len({id(c) for c in trainer.compressors}) == 3

    def test_lars_selected_for_vgg_policy(self):
        trainer = DistributedTrainer(tiny_config(model="vgg16", world_size=2,
                                                 max_iterations_per_epoch=1,
                                                 num_train=64, num_test=16))
        from repro.optim import LARS
        assert isinstance(trainer.optimizer, LARS)

    def test_sgd_selected_for_fnn_policy(self):
        trainer = DistributedTrainer(tiny_config())
        from repro.optim import SGD
        assert isinstance(trainer.optimizer, SGD)

    def test_wire_bits_property(self):
        trainer = DistributedTrainer(tiny_config(algorithm="a2sgd"))
        assert trainer.wire_bits_per_iteration == 64.0
        dense = DistributedTrainer(tiny_config(algorithm="dense"))
        assert dense.wire_bits_per_iteration == 32.0 * dense.num_parameters


class TestClassificationTraining:
    @pytest.mark.parametrize("algorithm", ["dense", "a2sgd", "topk", "gaussiank", "qsgd"])
    def test_all_algorithms_improve_over_random_guessing(self, algorithm):
        # The sparsifiers use a denser ratio than the paper's 0.001 here
        # because the CI run only performs ~36 iterations; with 0.001 almost
        # nothing would have been transmitted yet.
        kwargs = {"ratio": 0.05} if algorithm in ("topk", "gaussiank") else {}
        config = tiny_config(algorithm=algorithm, epochs=3, max_iterations_per_epoch=12,
                             num_train=384, num_test=96, compressor_kwargs=kwargs)
        metrics = DistributedTrainer(config).train()
        # Ten balanced classes: random guessing is ~10 %.  QSGD is the
        # noisiest of the five (level-4 stochastic quantization), so the bar
        # is set where every algorithm clearly learns without being flaky.
        assert metrics.final_metric > 20.0
        assert len(metrics.epochs) == 3

    def test_loss_decreases(self):
        metrics = DistributedTrainer(tiny_config(epochs=3, max_iterations_per_epoch=12)).train()
        assert metrics.train_loss[-1] < metrics.train_loss[0]

    def test_a2sgd_close_to_dense_accuracy(self):
        """Figure 3's qualitative claim on the tiny substitute task."""
        dense = DistributedTrainer(tiny_config(algorithm="dense", epochs=3,
                                               max_iterations_per_epoch=12)).train()
        a2sgd = DistributedTrainer(tiny_config(algorithm="a2sgd", epochs=3,
                                               max_iterations_per_epoch=12)).train()
        assert a2sgd.final_metric >= dense.final_metric - 15.0

    def test_replicas_synchronized_after_training(self):
        trainer = DistributedTrainer(tiny_config(epochs=1, max_iterations_per_epoch=4))
        trainer.train()
        flats = [flatten_parameters(m) for m in trainer.replicas]
        for other in flats[1:]:
            np.testing.assert_allclose(flats[0], other, atol=1e-6)

    def test_timeline_records_every_iteration(self):
        trainer = DistributedTrainer(tiny_config(epochs=2, max_iterations_per_epoch=5))
        trainer.train()
        assert trainer.timeline.iterations == 10
        assert trainer.timeline.compute_s > 0
        assert trainer.timeline.communication_s > 0

    def test_deterministic_given_seed(self):
        m1 = DistributedTrainer(tiny_config(seed=5)).train()
        m2 = DistributedTrainer(tiny_config(seed=5)).train()
        assert m1.metric == m2.metric
        assert m1.train_loss == m2.train_loss

    def test_different_world_sizes_run(self):
        for world_size in (1, 2, 4):
            config = tiny_config(world_size=world_size, epochs=1, max_iterations_per_epoch=3)
            metrics = DistributedTrainer(config).train()
            assert len(metrics.epochs) == 1


class TestLanguageModelTraining:
    def test_lstm_perplexity_improves(self):
        config = TrainerConfig(model="lstm_ptb", preset="tiny", algorithm="a2sgd",
                               world_size=2, epochs=2, seed=0, max_iterations_per_epoch=15,
                               seq_len=10, num_train=6000, num_test=1200, base_lr=5.0)
        metrics = DistributedTrainer(config).train()
        assert metrics.metric_name == "perplexity"
        # An untrained model starts far above the 200-token uniform baseline;
        # a couple of epochs must bring perplexity down.
        assert metrics.metric[-1] < metrics.metric[0]
        assert np.isfinite(metrics.final_metric)

    def test_lstm_dense_baseline_runs(self):
        config = TrainerConfig(model="lstm_ptb", preset="tiny", algorithm="dense",
                               world_size=2, epochs=1, seed=0, max_iterations_per_epoch=5,
                               seq_len=8, num_train=4000, num_test=800)
        metrics = DistributedTrainer(config).train()
        assert len(metrics.metric) == 1


class TestEvaluation:
    def test_evaluate_returns_percentage(self):
        trainer = DistributedTrainer(tiny_config(epochs=1, max_iterations_per_epoch=2))
        value = trainer.evaluate()
        assert 0.0 <= value <= 100.0

    def test_evaluate_does_not_perturb_weights(self):
        trainer = DistributedTrainer(tiny_config(epochs=1, max_iterations_per_epoch=2))
        before = flatten_parameters(trainer.replicas[0]).copy()
        trainer.evaluate()
        np.testing.assert_array_equal(before, flatten_parameters(trainer.replicas[0]))
