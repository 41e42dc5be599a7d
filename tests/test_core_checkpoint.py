"""Tests for trainer checkpointing."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainerConfig, load_checkpoint, save_checkpoint
from repro.core.flatten import flatten_parameters


def make_trainer(**overrides) -> DistributedTrainer:
    base = dict(model="fnn3", preset="tiny", algorithm="a2sgd", world_size=2, epochs=1,
                batch_size=16, max_iterations_per_epoch=4, num_train=128, num_test=32, seed=0)
    base.update(overrides)
    return DistributedTrainer(TrainerConfig(**base))


class TestCheckpointRoundtrip:
    def test_parameters_restored_exactly(self, tmp_path):
        trainer = make_trainer()
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        assert path.exists()

        fresh = make_trainer()
        load_checkpoint(fresh, path)
        for original, restored in zip(trainer.replicas, fresh.replicas):
            np.testing.assert_array_equal(flatten_parameters(original),
                                          flatten_parameters(restored))

    def test_progress_and_metrics_restored(self, tmp_path):
        trainer = make_trainer(epochs=2)
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        fresh = make_trainer(epochs=2)
        load_checkpoint(fresh, path)
        assert fresh._global_iteration == trainer._global_iteration
        assert fresh.metrics.metric == trainer.metrics.metric
        assert fresh.metrics.train_loss == trainer.metrics.train_loss

    def test_optimizer_momentum_restored(self, tmp_path):
        trainer = make_trainer(algorithm="dense")
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        fresh = make_trainer(algorithm="dense")
        load_checkpoint(fresh, path)
        assert np.any(trainer._velocity_matrix)
        np.testing.assert_array_equal(fresh._velocity_matrix, trainer._velocity_matrix)
        assert fresh.optimizer.lr == trainer.optimizer.lr

    def test_compressor_residual_restored(self, tmp_path):
        trainer = make_trainer(algorithm="topk", compressor_kwargs={"ratio": 0.05})
        trainer.train()
        assert trainer.compressors[0]._residual is not None
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        fresh = make_trainer(algorithm="topk", compressor_kwargs={"ratio": 0.05})
        load_checkpoint(fresh, path)
        np.testing.assert_allclose(fresh.compressors[0]._residual,
                                   trainer.compressors[0]._residual)

    @pytest.mark.parametrize("saved,loading", [(2, 4), (4, 2)])
    def test_world_size_mismatch_raises(self, tmp_path, saved, loading):
        trainer = make_trainer(world_size=saved)
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        other = make_trainer(world_size=loading)
        before = other.flat_world.param_matrix.copy()
        with pytest.raises(KeyError, match=f"checkpoint was saved with world_size={saved}, "
                                           f"the trainer has world_size={loading}"):
            load_checkpoint(other, path)
        np.testing.assert_array_equal(other.flat_world.param_matrix, before)

    def test_creates_parent_directories(self, tmp_path):
        trainer = make_trainer()
        path = save_checkpoint(trainer, tmp_path / "nested" / "dir" / "ckpt.npz")
        assert path.exists()

    def test_returns_the_path_numpy_wrote(self, tmp_path):
        """``np.savez`` appends ``.npz`` to a bare name; the returned path must
        be the file that exists, not the name that was asked for."""
        trainer = make_trainer()
        path = save_checkpoint(trainer, tmp_path / "ckpt")
        assert path == tmp_path / "ckpt.npz"
        assert path.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        load_checkpoint(make_trainer(), path)

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """The every-epoch callback overwrites one path: a write that dies
        half-way must leave the last good file byte-identical and no litter."""
        trainer = make_trainer()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        good = path.read_bytes()
        trainer.train()

        def dies_mid_write(file, **arrays):
            Path(file).write_bytes(b"PK\x03\x04 truncated")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", dies_mid_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(trainer, path)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        load_checkpoint(make_trainer(), path)
