"""The fused ``batch_norm`` op against the composite graph it replaced.

``composite_batch_norm`` is the formula both BatchNorm layers ran as a
12-node autograd graph before the op existed (batch mean, mean of the centred
square, divide by ``sqrt(var + eps)``, scale, shift); it is the reference for
the forward and, within float32 tolerance, the backward.  The op's own
hand-derived backward is pinned by float64 central differences, and its
equivalences bit for bit: the stacked ``(P, N, C, ...)`` call against the
per-replica loop (running buffers included), and a tape replay against the
eager pass — also when the op's ``dx`` workspace reaches an input with two
consumers, or one whose backward scales its incoming gradient in place.
"""

from collections import Counter

import numpy as np
import pytest

from repro import nn
from repro.core import DistributedTrainer, TrainerConfig
from repro.core.batched_replicas import ReplicaStack
from repro.core.flat_buffer import WorldFlatBuffers
from repro.tensor import Tensor, functional as F
from repro.tensor.tape import Tape, TapeReplayer, recording
from repro.tensor.tensor import no_grad

from tests.conftest import numerical_gradient
from tests.numerics_ledger import LEDGER
from tests.reference_forward import reference_forward

EPS = 1e-5


def _layout(x_shape, weight_ndim):
    """Reduction axes and the broadcast shape of per-channel values.

    ``(C,)`` parameters normalize ``(N, C, *spatial)`` over every axis but 1;
    stacked ``(P, C)`` ones normalize ``(P, N, C, *spatial)`` per replica,
    over every axis but 0 and 2.
    """
    channel = weight_ndim
    axes = tuple(a for a in range(weight_ndim - 1, len(x_shape)) if a != channel)
    broadcast = tuple(1 if a in axes else size for a, size in enumerate(x_shape))
    return axes, broadcast


def composite_batch_norm(x, weight, bias, eps, stats=None):
    """The pre-op composite BatchNorm graph; returns ``(out, mean, var)``."""
    axes, broadcast = _layout(x.shape, weight.ndim)
    if stats is None:
        mean = x.mean(axis=axes, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=axes, keepdims=True)
    else:
        mean, var = (Tensor(s.reshape(broadcast)) for s in stats)
    x_hat = (x - mean) / (var + eps).sqrt()
    return x_hat * weight.reshape(broadcast) + bias.reshape(broadcast), mean, var


def numpy_batch_norm(x, weight, bias, eps, stats=None):
    """The same formula in plain float64 NumPy (for central differences)."""
    axes, broadcast = _layout(x.shape, weight.ndim)
    if stats is None:
        mean = x.mean(axis=axes, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
    else:
        mean, var = (np.asarray(s, dtype=np.float64).reshape(broadcast) for s in stats)
    return ((x - mean) / np.sqrt(var + eps) * weight.reshape(broadcast)
            + bias.reshape(broadcast))


#: name -> (input shape, parameter shape)
LAYOUTS = {
    "bn2d": ((4, 3, 3, 2), (3,)),
    "bn1d": ((6, 4), (4,)),
    "stacked_bn2d": ((2, 3, 3, 2, 2), (2, 3)),
    "stacked_bn1d": ((3, 5, 2), (3, 2)),
}


def make_operands(layout, seed=0):
    x_shape, p_shape = LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    x = (2.0 * rng.standard_normal(x_shape) + 1.0).astype(np.float32)
    weight = (1.0 + 0.3 * rng.standard_normal(p_shape)).astype(np.float32)
    bias = (0.5 * rng.standard_normal(p_shape)).astype(np.float32)
    stats = ((0.5 * rng.standard_normal(p_shape)).astype(np.float32),
             (0.5 + rng.random(p_shape)).astype(np.float32))
    probe = rng.standard_normal(x_shape).astype(np.float32)
    return x, weight, bias, stats, probe


def run_op(fn, x, weight, bias, stats, probe):
    """Forward ``fn`` and back-propagate ``Σ out·probe``; returns the output,
    the statistics and the three gradients."""
    xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, weight, bias))
    out, mean, var = fn(xt, wt, bt, EPS, stats)
    (out * Tensor(probe)).sum().backward()
    mean, var = (s.data if isinstance(s, Tensor) else s for s in (mean, var))
    return out.data, mean, var, xt.grad, wt.grad, bt.grad


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestAgainstReferences:
    def test_matches_the_composite_oracle(self, layout, training):
        x, weight, bias, stats, probe = make_operands(layout)
        stats = None if training else stats
        fused = run_op(F.batch_norm, x, weight, bias, stats, probe)
        composite = run_op(composite_batch_norm, x, weight, bias, stats, probe)
        out, mean, var = fused[:3]
        np.testing.assert_allclose(out, composite[0], rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(mean.reshape(-1), composite[1].reshape(-1), rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(var.reshape(-1), composite[2].reshape(-1), rtol=1e-5, atol=1e-6)
        for name, got, want in zip(("x", "weight", "bias"), fused[3:], composite[3:]):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5, err_msg=name)

    def test_backward_matches_float64_central_differences(self, layout, training):
        x, weight, bias, stats, probe = make_operands(layout, seed=1)
        stats = None if training else stats
        _, _, _, dx, dw, db = run_op(F.batch_norm, x, weight, bias, stats, probe)
        x64, w64, b64, probe64 = (a.astype(np.float64) for a in (x, weight, bias, probe))

        def loss(x_, w_, b_):
            return float((numpy_batch_norm(x_, w_, b_, EPS, stats) * probe64).sum())

        for name, got, numeric in (
                ("x", dx, numerical_gradient(lambda v: loss(v, w64, b64), x64, eps=1e-4)),
                ("weight", dw, numerical_gradient(lambda v: loss(x64, v, b64), w64, eps=1e-4)),
                ("bias", db, numerical_gradient(lambda v: loss(x64, w64, v), b64, eps=1e-4))):
            np.testing.assert_allclose(got, numeric, rtol=1e-3, atol=1e-4, err_msg=name)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_inference_matches_the_differentiable_eval_pass(layout):
    """Under ``no_grad`` the eval-mode op normalizes in place in an output
    laid out like its input; the values stay those of the eval pass that
    keeps x̂ for a backward, for a C-contiguous input, a batch-innermost one
    (a conv output's layout) and one with no ``(P, N, C, S)`` view."""
    x, weight, bias, stats, probe = make_operands(layout)
    expected = run_op(F.batch_norm, x, weight, bias, stats, probe)[0]
    batch = len(weight.shape) - 1
    layouts = [x, np.moveaxis(np.moveaxis(x, batch, -1).copy(), -1, batch)]
    if x.ndim - batch == 4:       # (N, C, H, W) stored with W before H
        layouts.append(np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2))
    for data in layouts:
        with no_grad():
            out = F.batch_norm(Tensor(data), Tensor(weight), Tensor(bias), EPS, stats)[0]
        np.testing.assert_array_equal(out.data, expected)


def test_constant_channel_gives_finite_outputs_and_gradients():
    """var = 0: the channel normalizes to exactly 0 through ``1/sqrt(eps)``."""
    x, weight, bias, _, probe = make_operands("bn2d")
    x[:, 1] = 3.0
    out, mean, var, dx, dw, db = run_op(F.batch_norm, x, weight, bias, None, probe)
    assert mean[0, 1] == 3.0 and var[0, 1] == 0.0
    np.testing.assert_array_equal(out[:, 1], np.full(out[:, 1].shape, bias[1]))
    for array in (out, dx, dw, db):
        assert np.all(np.isfinite(array))
    assert dw[1] == 0.0


#: name -> (layer class, per-replica input shape)
EDGE_CASES = {
    "bn2d": (nn.BatchNorm2d, (3, 4, 3, 3)),
    "n=1": (nn.BatchNorm2d, (1, 4, 3, 3)),
    "c=1": (nn.BatchNorm2d, (3, 1, 3, 3)),
    "hw=1": (nn.BatchNorm2d, (3, 4, 1, 1)),
    "bn1d": (nn.BatchNorm1d, (5, 3)),
}


class TestStackedEqualsPerReplicaLoop:
    """``forward_batched`` over ``P`` stacked replicas against the former
    per-replica body (``tests/reference_forward.py``) on each replica alone:
    outputs, input / weight / bias gradients and running buffers bit for bit,
    over two training passes and one eval pass."""

    @pytest.mark.parametrize("P", [1, 2, 4, 8])
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_bit_identical(self, case, P):
        cls, shape = EDGE_CASES[case]
        C = shape[1]
        rng = np.random.default_rng(P)
        weights = (1.0 + 0.3 * rng.standard_normal((P, C))).astype(np.float32)
        biases = (0.5 * rng.standard_normal((P, C))).astype(np.float32)

        def layers():
            made = [cls(C, momentum=0.3) for _ in range(P)]
            for layer, w, b in zip(made, weights, biases):
                layer.weight.data[...] = w
                layer.bias.data[...] = b
            return made

        loop = layers()
        stacked = layers()
        stack = ReplicaStack(stacked, WorldFlatBuffers(stacked))
        for training in (True, True, False):
            x = (2.0 * rng.standard_normal((P, *shape)) + 1.0).astype(np.float32)
            dy = rng.standard_normal((P, *shape)).astype(np.float32)
            for layer in loop + stacked:
                layer.train(training)

            stack.begin_iteration()
            xt = Tensor(x.copy(), requires_grad=True)
            out = stacked[0].forward_batched(xt, stack)
            out.backward(dy)
            for p, layer in enumerate(loop):
                layer.zero_grad()
                xp = Tensor(x[p].copy(), requires_grad=True)
                out_p = reference_forward(layer, xp)
                out_p.backward(dy[p])
                np.testing.assert_array_equal(out.data[p], out_p.data)
                np.testing.assert_array_equal(xt.grad[p], xp.grad)
                np.testing.assert_array_equal(
                    stack.tensor(stacked[0].weight).grad[p], layer.weight.grad)
                np.testing.assert_array_equal(
                    stack.tensor(stacked[0].bias).grad[p], layer.bias.grad)
                for (name, buf), (_, stacked_buf) in zip(
                        layer.named_buffers(), stacked[p].named_buffers()):
                    np.testing.assert_array_equal(stacked_buf, buf, err_msg=name)

    def test_eval_mode_leaves_the_recording_unreplayable(self):
        layers = [nn.BatchNorm2d(2) for _ in range(2)]
        stack = ReplicaStack(layers, WorldFlatBuffers(layers))
        for layer in layers:
            layer.eval()
        tape = Tape()
        with recording(tape):
            layers[0].forward_batched(Tensor(np.ones((2, 3, 2, 2, 2), np.float32)), stack)
        assert not tape.valid and "batchnorm eval-mode" in tape.invalid_reason


class TestReplayEqualsEager:
    """``h = x @ W`` (per replica) feeds the op, so the op's ``dx`` workspace
    becomes ``h``'s gradient and matmul's backward scales it in place; with
    ``second_consumer`` ``h`` also feeds a product into the loss."""

    P, N, K, C = 2, 5, 4, 3

    def graph(self, x_buf, params, second_consumer):
        W, weight, bias, probe = params
        h = Tensor(x_buf).matmul(W)
        out, mean, var = F.batch_norm(h, weight, bias, EPS)
        loss = (out * probe).sum()
        if second_consumer:
            loss = loss + (h * probe).sum()
        return loss, mean, var

    def params(self, rng):
        return (Tensor(rng.standard_normal((self.P, self.K, self.C)).astype(np.float32),
                       requires_grad=True),
                Tensor((1.0 + 0.3 * rng.standard_normal((self.P, self.C))).astype(np.float32),
                       requires_grad=True),
                Tensor(rng.standard_normal((self.P, self.C)).astype(np.float32),
                       requires_grad=True),
                Tensor(rng.standard_normal((self.P, self.N, self.C)).astype(np.float32)))

    @pytest.mark.parametrize("second_consumer", [False, True], ids=["one", "two"])
    def test_bit_identical(self, second_consumer):
        eager_params = self.params(np.random.default_rng(4))
        taped_params = self.params(np.random.default_rng(4))
        rng = np.random.default_rng(5)
        inputs = [rng.standard_normal((self.P, self.N, self.K)).astype(np.float32)
                  for _ in range(4)]

        x_buf = inputs[0].copy()
        tape = Tape()
        with recording(tape):
            loss, mean, var = self.graph(x_buf, taped_params, second_consumer)
        replayer = TapeReplayer(tape, loss)
        assert tape.valid and Counter(node.op for node in tape.nodes)["batch_norm"] == 1

        for step, x in enumerate(inputs):
            for p in eager_params[:3] + taped_params[:3]:
                p.grad = None
            eager_loss, eager_mean, eager_var = self.graph(x.copy(), eager_params,
                                                           second_consumer)
            eager_loss.backward()
            if step == 0:
                loss.backward()
                taped_loss = loss.data
            else:
                np.copyto(x_buf, x)
                taped_loss = replayer.replay()
            assert taped_loss == eager_loss.data
            np.testing.assert_array_equal(mean, eager_mean)
            np.testing.assert_array_equal(var, eager_var)
            for taped, eager in zip(taped_params[:3], eager_params[:3]):
                np.testing.assert_array_equal(taped.grad, eager.grad)


def test_resnet20_tape_has_one_batch_norm_node_per_layer():
    """resnet20/tiny at P = 4 (the benchmark's spec): the recorded graph holds
    one ``batch_norm`` node per BatchNorm layer and none of the composite
    graph's ``sqrt`` / ``div`` / ``sub`` nodes (152 recorded ops before the
    fused op; the count after is pinned in the numerics ledger)."""
    trainer = DistributedTrainer(TrainerConfig(
        model="resnet20", preset="tiny", algorithm="a2sgd", world_size=4, epochs=1,
        max_iterations_per_epoch=2, num_train=256, num_test=32, seed=0))
    trainer.train()
    (recording_,) = trainer.executor._recordings.values()
    ops = Counter(node.op for node in recording_.replayer._topo)
    layers = sum(isinstance(m, nn.BatchNorm2d) for m in trainer.executor.model.modules())
    assert layers == 9
    assert ops["batch_norm"] == layers
    assert ops["sqrt"] == ops["div"] == ops["sub"] == 0
    assert recording_.replayer.stats["recorded_ops"] \
        == LEDGER["tape"]["resnet20_conv_a2sgd"]["recorded_ops"]
