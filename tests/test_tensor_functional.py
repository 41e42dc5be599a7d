"""Tests for functional NN operations: convolution, pooling, softmax, losses."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F
from tests import reference_forward as reference_ops
from tests.conftest import check_gradient, numerical_gradient


class TestConv2d:
    def test_output_shape_no_padding(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((5, 3, 3, 3)).astype(np.float32))
        out = F.conv2d(x, w)
        assert out.shape == (2, 5, 6, 6)

    def test_output_shape_with_padding_and_stride(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 4, 4, 4)

    def test_identity_kernel_reproduces_input(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(Tensor(x), Tensor(w), padding=1)
        np.testing.assert_allclose(out.data, x, rtol=1e-5)

    def test_matches_explicit_convolution(self, rng):
        x = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
        w = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w)).data[0, 0]
        expected = np.zeros((3, 3), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x[0, 0, i:i + 3, j:j + 3] * w[0, 0]).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-4)

    def test_bias_added_per_channel(self, rng):
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.array([1.0, -2.0], dtype=np.float32))
        out = F.conv2d(x, w, b, padding=1)
        np.testing.assert_allclose(out.data[0, 0], np.ones((4, 4)))
        np.testing.assert_allclose(out.data[0, 1], -2 * np.ones((4, 4)))

    def test_gradient_wrt_input(self, rng):
        w = rng.standard_normal((2, 1, 3, 3)).astype(np.float32) * 0.5
        x = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
        check_gradient(lambda t: F.conv2d(t, Tensor(w), padding=1).sum(), x,
                       rtol=3e-2, atol=3e-3)

    def test_gradient_wrt_weight(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 5, 5)).astype(np.float32))
        w_init = rng.standard_normal((2, 1, 3, 3)).astype(np.float32) * 0.5
        check_gradient(lambda t: F.conv2d(x, t, padding=1).sum(), w_init,
                       rtol=3e-2, atol=3e-3)

    def test_gradient_wrt_bias(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 1, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        F.conv2d(x, w, b, padding=1).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(3, 2 * 4 * 4), rtol=1e-4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_kernel_too_large_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
        with pytest.raises(ValueError):
            F.conv2d(x, w)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), kernel=2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient_flows_to_max_only(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, kernel=2).sum().backward()
        assert x.grad.sum() == pytest.approx(4.0)
        assert x.grad[0, 0, 1, 1] == pytest.approx(1.0)
        assert x.grad[0, 0, 0, 0] == pytest.approx(0.0)

    def test_max_pool_tie_breaking_single_winner(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        F.max_pool2d(x, kernel=2).sum().backward()
        assert x.grad.sum() == pytest.approx(1.0)

    def test_avg_pool_values_and_gradient(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        out = F.avg_pool2d(x, kernel=2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_avg_pool_requires_exact_division(self):
        with pytest.raises(NotImplementedError):
            F.avg_pool2d(Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32)), kernel=2)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)), rtol=1e-5)


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((5, 7)).astype(np.float32))
        probs = F.softmax(x)
        np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(5), rtol=1e-5)

    def test_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]], dtype=np.float32))
        probs = F.softmax(x)
        assert np.isfinite(probs.data).all()
        np.testing.assert_allclose(probs.data[0, :2], [0.5, 0.5], atol=1e-5)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        np.testing.assert_allclose(F.log_softmax(x).data, np.log(F.softmax(x).data),
                                   rtol=1e-4, atol=1e-5)

    def test_cross_entropy_value_matches_manual(self, rng):
        logits = rng.standard_normal((6, 4)).astype(np.float32)
        targets = rng.integers(0, 4, size=6)
        loss = F.cross_entropy(Tensor(logits), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(6), targets].mean()
        assert loss.item() == pytest.approx(expected, rel=1e-5)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self, rng):
        logits = Tensor(rng.standard_normal((3, 5)).astype(np.float32), requires_grad=True)
        targets = np.array([0, 2, 4])
        F.cross_entropy(logits, targets).backward()
        probs = F.softmax(Tensor(logits.data)).data
        onehot = np.zeros_like(probs)
        onehot[np.arange(3), targets] = 1.0
        np.testing.assert_allclose(logits.grad, (probs - onehot) / 3, rtol=1e-4, atol=1e-6)

    def test_cross_entropy_gradient_numerical(self, rng):
        logits = rng.standard_normal((4, 3)).astype(np.float32)
        targets = np.array([0, 1, 2, 1])
        check_gradient(lambda t: F.cross_entropy(t, targets), logits)

    def test_cross_entropy_batch_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((3, 4), dtype=np.float32)), np.array([0, 1]))

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -50.0, dtype=np.float32)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-5

    def test_nll_loss_matches_cross_entropy(self, rng):
        logits = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
        targets = rng.integers(0, 4, size=5)
        ce = F.cross_entropy(logits, targets)
        nll = F.nll_loss(F.log_softmax(logits), targets)
        assert nll.item() == pytest.approx(ce.item(), rel=1e-4)

    def test_mse_loss(self):
        pred = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        target = np.array([0.0, 0.0], dtype=np.float32)
        loss = F.mse_loss(pred, Tensor(target))
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])


class TestDropoutEmbedding:
    def test_dropout_eval_mode_is_identity(self, rng):
        x = Tensor(rng.standard_normal(100).astype(np.float32))
        out = F.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(200_00, dtype=np.float32))
        out = F.dropout(x, 0.3, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.03)

    def test_dropout_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, rng)

    def test_embedding_lookup_and_gradient(self, rng):
        weight = Tensor(rng.standard_normal((10, 4)).astype(np.float32), requires_grad=True)
        indices = np.array([[1, 1], [3, 0]])
        out = F.embedding(indices, weight)
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[0, 0], weight.data[1])
        out.sum().backward()
        # Token 1 appears twice, so its gradient row accumulates twice.
        np.testing.assert_allclose(weight.grad[1], np.full(4, 2.0))
        np.testing.assert_allclose(weight.grad[2], np.zeros(4))

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_linear_matches_manual(self, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((2, 4)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-5)


# Per-replica op ≡ its former body: F.conv2d / max_pool2d / cross_entropy /
# embedding are one-call P = 1 wrappers of their ``*_batched`` ops; the
# bodies they replaced live in tests/reference_forward.py.
def _conv_case(rng, c_out, kernel, stride, padding, bias):
    x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
    w = rng.standard_normal((c_out, 3, kernel, kernel)).astype(np.float32)
    b = rng.standard_normal(c_out).astype(np.float32) if bias else None
    return [x, w] + ([b] if bias else []), (lambda f, x, w, b=None: f(
        x, w, b, stride=stride, padding=padding))


PER_REPLICA_OP_CASES = {
    "conv_bias_stride2_pad1": ("conv2d", lambda rng: _conv_case(rng, 4, 3, 2, 1, True)),
    "conv_1x1": ("conv2d", lambda rng: _conv_case(rng, 5, 1, 1, 0, False)),
    "max_pool_dividing": ("max_pool2d", lambda rng: (
        [rng.standard_normal((2, 3, 8, 8)).astype(np.float32)],
        lambda f, x: f(x, 2))),
    "max_pool_k3_s2_on_9x9": ("max_pool2d", lambda rng: (
        [rng.standard_normal((2, 3, 9, 9)).astype(np.float32)],
        lambda f, x: f(x, 3, 2))),
    "max_pool_k2_on_7x7": ("max_pool2d", lambda rng: (
        [rng.standard_normal((2, 3, 7, 7)).astype(np.float32)],
        lambda f, x: f(x, 2))),
    "cross_entropy_x40_logits": ("cross_entropy", lambda rng: (
        [40.0 * rng.standard_normal((6, 10)).astype(np.float32)],
        lambda f, logits: f(logits, rng.integers(0, 10, size=6)))),
    "embedding": ("embedding", lambda rng: (
        [rng.standard_normal((11, 4)).astype(np.float32)],
        lambda f, table: f(rng.integers(0, 11, size=(3, 5)), table))),
}


@pytest.mark.parametrize("case", sorted(PER_REPLICA_OP_CASES))
def test_per_replica_op_matches_its_former_body(case):
    """Forward values and every operand's gradient, bit for bit."""
    op, make = PER_REPLICA_OP_CASES[case]
    results = []
    for fn in (getattr(F, op), getattr(reference_ops, op)):
        operands, call = make(np.random.default_rng(3))
        tensors = [Tensor(a, requires_grad=True) for a in operands]
        out = call(fn, *tensors)
        probe = np.random.default_rng(4).standard_normal(out.shape).astype(np.float32)
        (out * Tensor(probe)).sum().backward()
        results.append([out.data] + [t.grad for t in tensors])
    assert results[0][0].shape == results[1][0].shape
    for got, expected in zip(*results, strict=True):
        np.testing.assert_array_equal(got.view(np.uint32), expected.view(np.uint32))
