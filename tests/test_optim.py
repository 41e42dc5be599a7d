"""Tests for SGD, LARS and the base optimizer."""

import numpy as np
import pytest

from repro import nn
from repro.optim import LARS, SGD
from repro.optim import sgd as sgd_module
from repro.optim.lars import lars_flat_update
from repro.optim.sgd import STEP_BLOCK_ELEMENTS, sgd_flat_update
from repro.tensor import Tensor


def make_param(values) -> nn.Parameter:
    return nn.Parameter(np.asarray(values, dtype=np.float32))


class TestOptimizerBase:
    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_requires_positive_lr(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.0)

    def test_set_lr_validates(self):
        opt = SGD([make_param([1.0])], lr=0.1)
        with pytest.raises(ValueError):
            opt.set_lr(-1.0)
        opt.set_lr(0.5)
        assert opt.lr == 0.5

    def test_zero_grad(self):
        p = make_param([1.0])
        p.grad = np.array([2.0], dtype=np.float32)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None


class TestSGD:
    def test_vanilla_update(self):
        p = make_param([1.0, 2.0])
        p.grad = np.array([0.5, -0.5], dtype=np.float32)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_skips_parameters_without_gradient(self):
        p = make_param([1.0])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_weight_decay_pulls_towards_zero(self):
        p = make_param([1.0])
        p.grad = np.array([0.0], dtype=np.float32)
        SGD([p], lr=0.1, weight_decay=0.1).step()
        assert p.data[0] < 1.0

    def test_momentum_accumulates(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()                       # velocity = 1, p = -1
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()                       # velocity = 1.9, p = -2.9
        np.testing.assert_allclose(p.data, [-2.9], rtol=1e-6)

    def test_nesterov_differs_from_plain_momentum(self):
        p1, p2 = make_param([0.0]), make_param([0.0])
        opt1 = SGD([p1], lr=1.0, momentum=0.9)
        opt2 = SGD([p2], lr=1.0, momentum=0.9, nesterov=True)
        for opt, p in ((opt1, p1), (opt2, p2)):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step()
        assert p2.data[0] < p1.data[0]

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.1, nesterov=True)

    def test_negative_momentum_rejected(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.1, momentum=-0.5)

    def test_momentum_buffers_carry_the_whole_state(self):
        """``lr`` plus the index-keyed momentum buffers are everything a looped
        optimizer holds: copied into a fresh one, it continues the run."""
        p = make_param([0.0])
        opt = SGD([p], lr=0.5, momentum=0.9)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()

        q = make_param(p.data.copy())
        opt2 = SGD([q], lr=0.1, momentum=0.9)
        opt2.set_lr(opt.lr)
        opt2._velocity = {index: buf.copy() for index, buf in opt._velocity.items()}
        q.grad = np.array([1.0], dtype=np.float32)
        opt2.step()
        # With the restored velocity the second optimizer reproduces step 2.
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(q.data, p.data, rtol=1e-6)

    def test_converges_on_quadratic(self):
        p = make_param([5.0])
        opt = SGD([p], lr=0.1, momentum=0.5)
        for _ in range(200):
            p.grad = 2 * p.data          # gradient of x^2
            opt.step()
        assert abs(p.data[0]) < 1e-3


class TestFlatUpdateMatchesLoopedStep:
    """The fused whole-buffer kernels must match the per-parameter loop."""

    @staticmethod
    def build_model():
        return nn.Sequential(nn.Linear(7, 5, rng=np.random.default_rng(1)), nn.ReLU(),
                             nn.Linear(5, 3, rng=np.random.default_rng(2)))

    @pytest.mark.parametrize("cls,kwargs", [
        (SGD, {}),
        (SGD, {"momentum": 0.9}),
        (SGD, {"momentum": 0.9, "weight_decay": 0.01}),
        (SGD, {"momentum": 0.9, "weight_decay": 0.01, "nesterov": True}),
        (LARS, {"momentum": 0.9, "weight_decay": 0.01}),
    ])
    def test_flat_update_matches_looped_step(self, cls, kwargs):
        from repro.core.flat_buffer import ModelFlatBuffers

        looped_model = self.build_model()
        looped_opt = cls(looped_model.parameters(), lr=0.1, **kwargs)
        buffers = ModelFlatBuffers(self.build_model())
        layout = buffers.layout
        velocity = np.zeros_like(buffers.params)
        scratch = np.empty_like(buffers.params)

        rng = np.random.default_rng(3)
        for _ in range(5):
            flat_grad = rng.standard_normal(buffers.params.size).astype(np.float32)
            offset = 0
            for p in looped_model.parameters():
                p.grad = flat_grad[offset:offset + p.size].reshape(p.data.shape).copy()
                offset += p.size
            looped_opt.step()
            if cls is LARS:
                lars_flat_update(buffers.params, flat_grad, layout.offsets[:-1],
                                 layout.sizes, 0.1, velocity=velocity, scratch=scratch,
                                 **kwargs)
            else:
                sgd_flat_update(buffers.params, flat_grad, 0.1, velocity=velocity,
                                scratch=scratch, **kwargs)
            np.testing.assert_allclose(
                buffers.params,
                np.concatenate([p.data.reshape(-1) for p in looped_model.parameters()]),
                rtol=1e-6, atol=1e-7)
        if kwargs:
            # Both forms hold the same momentum: the kernel's flat vector is
            # the looped optimizer's per-parameter buffers, concatenated.
            np.testing.assert_allclose(
                velocity,
                np.concatenate([looped_opt._velocity[i].reshape(-1)
                                for i in range(len(layout))]),
                rtol=1e-5, atol=1e-7)

    def test_index_keyed_velocity_survives_parameter_gc(self):
        """Velocity is keyed by parameter index, so momentum cannot leak from
        a garbage-collected parameter whose id() gets reused."""
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert 0 in opt._velocity and id(p) not in opt._velocity


def reference_sgd_flat_update(params, grads, lr, momentum=0.0, weight_decay=0.0,
                              nesterov=False, velocity=None):
    """The single whole-buffer pass ``sgd_flat_update`` made before it was
    cache-blocked, kept verbatim as the bit-exact reference."""
    scratch = np.empty_like(params)
    if weight_decay:
        np.multiply(params, np.float32(weight_decay), out=scratch)
        scratch += grads
    else:
        scratch[...] = grads
    if momentum:
        velocity *= np.float32(momentum)
        velocity += scratch
        if nesterov:
            scratch += np.float32(momentum) * velocity
        else:
            scratch[...] = velocity
    scratch *= np.float32(lr)
    params -= scratch


def reference_lars_flat_update(params, grads, offsets, sizes, lr, momentum=0.0,
                               weight_decay=0.0, trust_coefficient=0.001, eps=1e-8,
                               velocity=None):
    """``lars_flat_update`` before its tail moved into the blocked SGD kernel."""
    scratch = np.empty_like(params)
    if weight_decay:
        np.multiply(params, np.float32(weight_decay), out=scratch)
        scratch += grads
    else:
        scratch[...] = grads
    starts = np.asarray(offsets, dtype=np.int64)
    grad_norms = np.sqrt(np.add.reduceat(scratch * scratch, starts, axis=-1))
    weight_norms = np.sqrt(np.add.reduceat(params * params, starts, axis=-1))
    trust = np.where((weight_norms > 0) & (grad_norms > 0),
                     np.float32(trust_coefficient) * weight_norms
                     / (grad_norms + np.float32(eps)),
                     np.float32(1.0))
    scratch *= np.repeat(trust, sizes, axis=-1)
    if momentum:
        velocity *= np.float32(momentum)
        velocity += scratch
        scratch[...] = velocity
    scratch *= np.float32(lr)
    params -= scratch


def assert_bits_equal(actual, expected):
    np.testing.assert_array_equal(np.ascontiguousarray(actual).view(np.uint32),
                                  np.ascontiguousarray(expected).view(np.uint32))


BLOCK = STEP_BLOCK_ELEMENTS
BLOCK_EDGE_SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]


def flat_state(shape, seed=0):
    """(params, grads, velocity) of one shape, float32, C-contiguous."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape).astype(np.float32),
            (rng.standard_normal(shape) * 0.01).astype(np.float32),
            (rng.standard_normal(shape) * 0.01).astype(np.float32))


class TestBlockedFlatUpdate:
    """The cache-blocked walk is bit-identical to the single whole-buffer pass."""

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("nesterov", [False, True])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd_matches_single_pass(self, momentum, weight_decay, nesterov, rows, n):
        shape = (n,) if rows is None else (rows, n)
        hyper = dict(momentum=momentum, weight_decay=weight_decay, nesterov=nesterov)
        params, grads, velocity = flat_state(shape)
        ref_params, _, ref_velocity = flat_state(shape)
        for step in range(2):
            sgd_flat_update(params, grads, 0.1, velocity=velocity, **hyper)
            reference_sgd_flat_update(ref_params, grads, 0.1, velocity=ref_velocity, **hyper)
        assert_bits_equal(params, ref_params)
        assert_bits_equal(velocity, ref_velocity)

    @pytest.mark.parametrize("rows,n", [(7, BLOCK // 3), (5, BLOCK // 2 + 3), (2, BLOCK)])
    def test_sgd_row_group_blocks(self, rows, n):
        # Rows shorter than a block are walked in whole-row groups, the last
        # group ragged (7 rows in groups of 3).
        params, grads, velocity = flat_state((rows, n))
        ref_params, _, ref_velocity = flat_state((rows, n))
        sgd_flat_update(params, grads, 0.05, 0.9, 1e-4, velocity=velocity)
        reference_sgd_flat_update(ref_params, grads, 0.05, 0.9, 1e-4, velocity=ref_velocity)
        assert_bits_equal(params, ref_params)
        assert_bits_equal(velocity, ref_velocity)

    @pytest.mark.parametrize("scratch_kind", ["none", "same_shape", "strided"])
    def test_sgd_scratch_is_only_a_work_buffer(self, scratch_kind):
        shape = (3, BLOCK + 1)
        scratch = {"none": None,
                   "same_shape": np.empty(shape, dtype=np.float32),
                   "strided": np.empty((3, 2 * (BLOCK + 1)), dtype=np.float32)[:, ::2],
                   }[scratch_kind]
        params, grads, velocity = flat_state(shape)
        ref_params, _, ref_velocity = flat_state(shape)
        sgd_flat_update(params, grads, 0.1, 0.9, 1e-4, velocity=velocity, scratch=scratch)
        reference_sgd_flat_update(ref_params, grads, 0.1, 0.9, 1e-4, velocity=ref_velocity)
        assert_bits_equal(params, ref_params)
        assert_bits_equal(velocity, ref_velocity)

    def test_sgd_velocity_rows_aliasing_a_shared_matrix(self):
        # The trainer's layout: every rank's optimizer steps its own (n,) row
        # of the world's parameter matrix with a row of one velocity matrix.
        shape = (4, 3 * BLOCK + 7)
        params, grads, velocity = flat_state(shape)
        ref_params, _, ref_velocity = flat_state(shape)
        for rank in range(shape[0]):
            sgd_flat_update(params[rank], grads[rank], 0.1, 0.9, velocity=velocity[rank])
        reference_sgd_flat_update(ref_params, grads, 0.1, 0.9, velocity=ref_velocity)
        assert_bits_equal(params, ref_params)
        assert_bits_equal(velocity, ref_velocity)

    def test_sgd_accepts_read_only_broadcast_gradients(self):
        # What an Allgather reconstruction hands the fused step: one row
        # broadcast to (P, n), stride 0 along the rank axis.
        shape = (3, 2 * BLOCK + 5)
        params, grads, velocity = flat_state(shape)
        ref_params, _, ref_velocity = flat_state(shape)
        shared = np.broadcast_to(grads[0], shape)
        sgd_flat_update(params, shared, 0.1, 0.9, 1e-4, velocity=velocity)
        reference_sgd_flat_update(ref_params, shared, 0.1, 0.9, 1e-4, velocity=ref_velocity)
        assert_bits_equal(params, ref_params)
        assert_bits_equal(velocity, ref_velocity)

    @staticmethod
    def count_block_calls(monkeypatch):
        calls = []
        kernel = sgd_module._sgd_update_block

        def counting(params, *args):
            calls.append(params.shape)
            kernel(params, *args)

        monkeypatch.setattr(sgd_module, "_sgd_update_block", counting)
        return calls

    def test_contiguous_storage_is_walked_in_blocks(self, monkeypatch):
        calls = self.count_block_calls(monkeypatch)
        params, grads, velocity = flat_state((2, 3 * BLOCK + 7))
        sgd_flat_update(params, grads, 0.1, 0.9, velocity=velocity)
        assert calls == [(1, BLOCK), (1, BLOCK), (1, BLOCK), (1, 7)] * 2
        assert all(rows * cols <= BLOCK for rows, cols in calls)

    @pytest.mark.parametrize("strided", ["params", "velocity"])
    def test_non_contiguous_storage_takes_the_single_pass(self, monkeypatch, strided):
        calls = self.count_block_calls(monkeypatch)
        shape = (3, BLOCK + 1)
        wide = (3, 2 * (BLOCK + 1))
        params, grads, velocity = flat_state(shape)
        ref_params, _, ref_velocity = flat_state(shape)
        operands = {"params": params, "velocity": velocity}
        backing = np.zeros(wide, dtype=np.float32)
        backing[:, ::2] = operands[strided]
        operands[strided] = backing[:, ::2]          # column-sliced view
        assert not operands[strided].flags.c_contiguous
        sgd_flat_update(operands["params"], grads, 0.1, 0.9, 1e-4,
                        velocity=operands["velocity"])
        reference_sgd_flat_update(ref_params, grads, 0.1, 0.9, 1e-4, velocity=ref_velocity)
        assert calls == [shape]
        assert_bits_equal(operands["params"], ref_params)
        assert_bits_equal(operands["velocity"], ref_velocity)
        assert np.all(backing[:, 1::2] == 0.0)       # the gaps were not written

    def test_momentum_requires_velocity(self):
        params, grads, _ = flat_state((4,))
        with pytest.raises(ValueError, match="velocity"):
            sgd_flat_update(params, grads, 0.1, momentum=0.9)

    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_lars_matches_single_pass(self, momentum, weight_decay, rows):
        # Layers straddle the block boundaries (one spans two whole blocks),
        # so a trust ratio computed per block instead of per layer would show.
        sizes = np.array([BLOCK // 2, 2 * BLOCK, 11, BLOCK // 2 - 4])
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        n = int(sizes.sum())
        shape = (n,) if rows is None else (rows, n)
        hyper = dict(momentum=momentum, weight_decay=weight_decay)
        params, grads, velocity = flat_state(shape)
        ref_params, _, ref_velocity = flat_state(shape)
        for step in range(2):
            lars_flat_update(params, grads, offsets, sizes, 0.1, velocity=velocity,
                             scratch=np.empty(shape, dtype=np.float32), **hyper)
            reference_lars_flat_update(ref_params, grads, offsets, sizes, 0.1,
                                       velocity=ref_velocity, **hyper)
        assert_bits_equal(params, ref_params)
        assert_bits_equal(velocity, ref_velocity)


class TestLARS:
    def test_update_direction_matches_gradient_sign(self):
        p = make_param([1.0, 1.0])
        p.grad = np.array([1.0, -1.0], dtype=np.float32)
        LARS([p], lr=0.1, momentum=0.0).step()
        assert p.data[0] < 1.0 and p.data[1] > 1.0

    def test_trust_ratio_scales_small_gradients_up(self):
        # Two identical weights; one sees a tiny gradient, one a huge one.
        p_small, p_large = make_param([1.0]), make_param([1.0])
        p_small.grad = np.array([1e-6], dtype=np.float32)
        p_large.grad = np.array([1e2], dtype=np.float32)
        LARS([p_small], lr=0.1, momentum=0.0).step()
        LARS([p_large], lr=0.1, momentum=0.0).step()
        # LARS normalizes by gradient norm, so the applied steps are equal
        # (up to the epsilon floor in the trust-ratio denominator).
        np.testing.assert_allclose(1.0 - p_small.data[0], 1.0 - p_large.data[0], rtol=2e-2)

    def test_zero_weight_uses_unit_trust_ratio(self):
        p = make_param([0.0])
        p.grad = np.array([1.0], dtype=np.float32)
        LARS([p], lr=0.1, momentum=0.0).step()
        np.testing.assert_allclose(p.data, [-0.1], rtol=1e-6)

    def test_momentum_accumulates(self):
        p = make_param([1.0])
        opt = LARS([p], lr=0.1, momentum=0.9)
        first_delta = None
        previous = p.data.copy()
        for i in range(2):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step()
            delta = previous - p.data
            previous = p.data.copy()
            if i == 0:
                first_delta = delta
        assert delta[0] > first_delta[0]

    def test_converges_on_quadratic(self):
        p = make_param([3.0])
        opt = LARS([p], lr=1.0, momentum=0.9, trust_coefficient=0.01)
        for _ in range(500):
            p.grad = 2 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.5
