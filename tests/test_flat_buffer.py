"""Tests for the zero-copy flat gradient/parameter buffers.

The aliasing invariants are the contract the whole fused pipeline rests on:
``param.data`` / ``param.grad`` must be live views of the flat storage in both
directions, autograd must accumulate into the flat matrix, and checkpointing
through the flat path must round-trip bit-exactly.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import DistributedTrainer, TrainerConfig, load_checkpoint, save_checkpoint
from repro.core.flat_buffer import FlatLayout, ModelFlatBuffers, WorldFlatBuffers
from repro.core.flatten import (
    flatten_gradients,
    flatten_parameters,
    unflatten_into_gradients,
    unflatten_into_parameters,
)
from repro.tensor import Tensor


def small_model():
    return nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))


class TestFlatLayout:
    def test_layout_matches_model(self):
        model = small_model()
        layout = FlatLayout.from_model(model)
        assert layout.total_size == model.num_parameters()
        assert layout.matches(model)
        assert len(layout) == len(model.parameters())

    def test_segments_cover_everything_in_order(self):
        model = small_model()
        layout = FlatLayout.from_model(model)
        expected_offset = 0
        for (offset, size, shape), param in zip(layout.segments(), model.parameters()):
            assert offset == expected_offset
            assert shape == param.data.shape
            expected_offset += size
        assert expected_offset == layout.total_size


class TestAliasing:
    def test_adoption_preserves_parameter_values(self):
        model = small_model()
        before = flatten_parameters(model)
        ModelFlatBuffers(model)
        np.testing.assert_array_equal(before, flatten_parameters(model))

    def test_param_write_visible_in_flat_view_and_back(self):
        model = small_model()
        buffers = ModelFlatBuffers(model)
        first = model.parameters()[0]
        first.data[...] = 3.5
        assert np.all(buffers.params[:first.size] == 3.5)
        buffers.params[:first.size] = -1.0
        assert np.all(first.data == -1.0)

    def test_grad_write_visible_both_directions(self):
        model = small_model()
        buffers = ModelFlatBuffers(model)
        vector = np.arange(buffers.grads.size, dtype=np.float32)
        buffers.grads[...] = vector
        buffers.attach_grads()
        first = model.parameters()[0]
        np.testing.assert_array_equal(first.grad.reshape(-1), vector[:first.size])
        first.grad[...] = 9.0
        assert np.all(buffers.grads[:first.size] == 9.0)

    def test_backward_accumulates_into_flat_storage(self, rng):
        model = small_model()
        buffers = ModelFlatBuffers(model)
        buffers.zero_grads()
        out = model(Tensor(rng.standard_normal((5, 3)).astype(np.float32)))
        out.sum().backward()
        assert np.abs(buffers.grads).sum() > 0
        np.testing.assert_array_equal(flatten_gradients(model), buffers.grads)

    def test_flatten_unflatten_on_an_adopted_model(self, rng):
        model = small_model()
        buffers = ModelFlatBuffers(model)
        vector = rng.standard_normal(buffers.params.size).astype(np.float32)
        unflatten_into_parameters(model, vector)
        np.testing.assert_array_equal(flatten_parameters(model), vector)
        unflatten_into_gradients(model, vector)
        np.testing.assert_array_equal(flatten_gradients(model), vector)
        with pytest.raises(ValueError):
            unflatten_into_gradients(model, vector[:-1])
        with pytest.raises(ValueError):
            unflatten_into_parameters(model, np.zeros(vector.size + 1, dtype=np.float32))
        # Assigning param.grad does not unpin: backward still lands in storage.
        buffers.zero_grads()
        model(Tensor(rng.standard_normal((5, 3)).astype(np.float32))).sum().backward()
        assert np.abs(buffers.grads).sum() > 0
        np.testing.assert_array_equal(flatten_gradients(model), buffers.grads)

    def test_zero_grads_clears_storage_and_grad_refs(self, rng):
        model = small_model()
        buffers = ModelFlatBuffers(model)
        out = model(Tensor(rng.standard_normal((2, 3)).astype(np.float32)))
        out.sum().backward()
        buffers.zero_grads()
        assert np.all(buffers.grads == 0)
        assert all(p.grad is None for p in model.parameters())


class TestWorldFlatBuffers:
    def test_rows_alias_replicas(self, rng):
        replicas = [small_model() for _ in range(3)]
        world = WorldFlatBuffers(replicas)
        for p, replica in enumerate(replicas):
            np.testing.assert_array_equal(world.param_matrix[p], flatten_parameters(replica))
        replicas[1].parameters()[0].data[...] = 4.0
        assert np.all(world.param_matrix[1][:12] == 4.0)

    def test_grad_matrix_is_the_backward_target(self, rng):
        replicas = [small_model() for _ in range(2)]
        world = WorldFlatBuffers(replicas)
        world.zero_grads()
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        for replica in replicas:
            replica(x).sum().backward()
        G = world.grad_matrix
        for p, replica in enumerate(replicas):
            np.testing.assert_array_equal(G[p], flatten_gradients(replica))

    def test_stacked_views_are_views(self):
        replicas = [small_model() for _ in range(4)]
        world = WorldFlatBuffers(replicas)
        stacked = world.stacked_param_view(0)
        assert stacked.shape == (4,) + replicas[0].parameters()[0].data.shape
        assert stacked.base is not None
        stacked[2] = 7.0
        assert np.all(world.param_matrix[2][:stacked[2].size] == 7.0)

    def test_row_is_a_p1_world_over_the_same_storage(self):
        replicas = [small_model() for _ in range(3)]
        world = WorldFlatBuffers(replicas)
        before = world.param_matrix.copy()
        row = world.row(1)
        assert (row.world_size, row.num_parameters) == (1, world.num_parameters)
        assert row.replica_buffers == [world.replica_buffers[1]]
        assert np.shares_memory(row.param_matrix, world.param_matrix[1])
        assert np.shares_memory(row.grad_matrix, world.grad_matrix[1])
        np.testing.assert_array_equal(world.param_matrix, before)  # not re-adopted
        row.stacked_grad_view(0)[0] = 3.0
        assert np.all(world.grad_matrix[1][:12] == 3.0)
        assert not world.grad_matrix[[0, 2]].any()


class TestCheckpointThroughFlatBuffers:
    def make_trainer(self, **overrides):
        base = dict(model="fnn3", preset="tiny", algorithm="a2sgd", world_size=2,
                    epochs=1, batch_size=16, max_iterations_per_epoch=4,
                    num_train=128, num_test=32, seed=0)
        base.update(overrides)
        return DistributedTrainer(TrainerConfig(**base))

    def test_fused_checkpoint_roundtrip_bitexact(self, tmp_path):
        trainer = self.make_trainer()
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "fused.npz")

        fresh = self.make_trainer()
        load_checkpoint(fresh, path)
        for original, restored in zip(trainer.replicas, fresh.replicas):
            np.testing.assert_array_equal(flatten_parameters(original),
                                          flatten_parameters(restored))
        # momentum state restored into the flat velocity rows
        assert np.any(trainer._velocity_matrix)
        np.testing.assert_array_equal(fresh._velocity_matrix, trainer._velocity_matrix)

