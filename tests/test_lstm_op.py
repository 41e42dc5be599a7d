"""The fused ``lstm`` op against the composite cell graph it replaced.

``composite_cell`` is the ``LSTMCell.forward`` body every LSTM layer ran once
per time step before the op existed (gate GEMMs, four gate slices, sigmoid /
tanh nodes, the subnormal flushes), and ``composite_lstm`` threads it through
a window and stacks the per-step outputs, as ``LSTM.forward`` did; together
they are the reference for the forward and, within float32 tolerance, the
backward.  The op's hand-derived backward is pinned by float64 central
differences on every operand, and its equivalences bit for bit: the stacked
``(P, T, N, D)`` call against the per-replica loop, and a tape replay against
the eager pass (op-level and through ``tests/eager_executors.py``).
``Tensor.sigmoid``, which now shares the op's stable-sigmoid helper, is pinned
against its previous formula bit for bit.
"""

import contextlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro import nn
from repro.core import DistributedTrainer, TrainerConfig
from repro.core.batched_replicas import (
    BatchedLanguageModelExecutor,
    ReplicaStack,
    build_replica_executor,
)
from repro.core.flat_buffer import WorldFlatBuffers
from repro.models.lstm_lm import LSTMLanguageModel
from repro.tensor import Tensor, functional as F
from repro.tensor.tape import Tape, TapeReplayer, recording
from repro.tensor.tensor import _FLUSH_FLOOR, no_grad

from tests.conftest import numerical_gradient
from tests.eager_executors import EagerLanguageModelExecutor
from tests.numerics_ledger import LEDGER
from tests.reference_forward import reference_forward


# ---------------------------------------------------------------------- #
# oracles
# ---------------------------------------------------------------------- #
def flush_subnormals(t: Tensor) -> Tensor:
    """The former ``Tensor.flush_subnormals``: zero values below the floor;
    the backward passes the gradient through, floored the same way."""
    out_data = t.data * (np.abs(t.data) >= _FLUSH_FLOOR)

    def backward(grad):
        if t.requires_grad:
            t._accumulate(grad * (np.abs(grad) >= _FLUSH_FLOOR))

    return Tensor._make(out_data, (t,), "flush_subnormals", backward)


def composite_cell(x, state, weight_ih, weight_hh, bias_ih, bias_hh):
    """The pre-op ``LSTMCell.forward`` body; only the parameters are arguments."""
    h_prev, c_prev = state
    gates = (x.matmul(weight_ih.T) + bias_ih
             + h_prev.matmul(weight_hh.T) + bias_hh)
    hs = weight_hh.shape[-1]
    i_gate = gates[:, 0 * hs:1 * hs].sigmoid()
    f_gate = gates[:, 1 * hs:2 * hs].sigmoid()
    g_gate = gates[:, 2 * hs:3 * hs].tanh()
    o_gate = gates[:, 3 * hs:4 * hs].sigmoid()
    c_new = flush_subnormals(f_gate * c_prev + i_gate * g_gate)
    h_new = flush_subnormals(o_gate * c_new.tanh())
    return h_new, c_new


def composite_lstm(x, weight_ih, weight_hh, bias_ih, bias_hh, h0, c0):
    """The composite cell over a window; stacked operands run replica by
    replica.  Returns ``(out, h_T, c_T)`` like the op."""
    if x.ndim == 4:
        per_replica = [composite_lstm(x[p], *(a[p] for a in (
            weight_ih, weight_hh, bias_ih, bias_hh, h0, c0))) for p in range(x.shape[0])]
        return tuple(Tensor.stack(list(r), axis=0) for r in zip(*per_replica))
    state = (h0, c0)
    outputs = []
    for t in range(x.shape[0]):
        state = composite_cell(x[t], state, weight_ih, weight_hh, bias_ih, bias_hh)
        outputs.append(state[0])
    return Tensor.stack(outputs, axis=0), state[0], state[1]


def numpy_lstm(x, weight_ih, weight_hh, bias_ih, bias_hh, h0, c0):
    """The same equations in plain float64 NumPy, one replica."""
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    h, c = h0, c0
    outputs = []
    for x_t in x:
        i, f, g, o = np.split(x_t @ weight_ih.T + bias_ih + h @ weight_hh.T + bias_hh, 4, axis=-1)
        c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
        h = sigmoid(o) * np.tanh(c)
        outputs.append(h)
    return np.stack(outputs), h, c


#: name -> (P or None for one replica, T, N, D, H)
LAYOUTS = {
    "replica": (None, 4, 3, 5, 4),
    "replica_t1_n1": (None, 1, 1, 3, 2),
    "stacked": (3, 4, 2, 3, 4),
}
OPERANDS = ("x", "weight_ih", "weight_hh", "bias_ih", "bias_hh", "h0", "c0")


def make_operands(layout, seed=0):
    """Operands in op order plus one probe per output."""
    P, T, N, D, H = LAYOUTS[layout]
    lead = () if P is None else (P,)
    rng = np.random.default_rng(seed)

    def draw(*shape, scale=1.0):
        return (scale * rng.standard_normal(lead + shape)).astype(np.float32)

    operands = (draw(T, N, D), draw(4 * H, D, scale=0.5), draw(4 * H, H, scale=0.5),
                draw(4 * H, scale=0.3), draw(4 * H, scale=0.3), draw(N, H, scale=0.5),
                draw(N, H))
    probes = (draw(T, N, H), draw(N, H), draw(N, H))
    return operands, probes


def run_op(fn, operands, probes):
    """Forward ``fn`` and back-propagate ``Σ out·p + Σ h_T·p_h + Σ c_T·p_c``;
    returns the three outputs and the seven operand gradients."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in operands]
    outputs = fn(*tensors)
    loss = sum((o * Tensor(p)).sum() for o, p in zip(outputs, probes))
    loss.backward()
    return [o.data for o in outputs], [t.grad for t in tensors]


# ---------------------------------------------------------------------- #
# the op against its references
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestAgainstReferences:
    def test_matches_the_composite_oracle(self, layout):
        operands, probes = make_operands(layout)
        fused_out, fused_grads = run_op(F.lstm, operands, probes)
        oracle_out, oracle_grads = run_op(composite_lstm, operands, probes)
        for name, got, want in zip(("out", "h_T", "c_T"), fused_out, oracle_out):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6, err_msg=name)
        for name, got, want in zip(OPERANDS, fused_grads, oracle_grads):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5, err_msg=name)

    def test_backward_matches_float64_central_differences(self, layout):
        operands, probes = make_operands(layout, seed=1)
        _, grads = run_op(F.lstm, operands, probes)
        operands64 = [a.astype(np.float64) for a in operands]
        probes64 = [p.astype(np.float64) for p in probes]
        stacked = operands[0].ndim == 4

        def loss(values):
            replicas = ([(v[r] for v in values), [p[r] for p in probes64]]
                        for r in range(values[0].shape[0])) if stacked else [(values, probes64)]
            return float(sum((o * p).sum() for args, ps in replicas
                             for o, p in zip(numpy_lstm(*args), ps)))

        for k, (name, got) in enumerate(zip(OPERANDS, grads)):
            def along(value, k=k):
                return loss(operands64[:k] + [value] + operands64[k + 1:])
            numeric = numerical_gradient(along, operands64[k], eps=1e-4)
            np.testing.assert_allclose(got, numeric, rtol=1e-3, atol=1e-5, err_msg=name)


def test_gradient_reaches_the_window_through_the_final_state_alone():
    """Only ``(h_T, c_T)`` feed the loss — as when a carried state is the
    next window's input — and every operand still gets the oracle's gradient."""
    operands, probes = make_operands("replica", seed=2)
    probes = (np.zeros_like(probes[0]),) + probes[1:]
    _, fused_grads = run_op(F.lstm, operands, probes)
    _, oracle_grads = run_op(composite_lstm, operands, probes)
    for name, got, want in zip(OPERANDS, fused_grads, oracle_grads):
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5, err_msg=name)
    assert np.abs(fused_grads[OPERANDS.index("weight_hh")]).sum() > 0


def test_carried_state_across_two_windows_equals_one_window():
    """Window 2 starts from window 1's ``(h_T, c_T)`` views: outputs and every
    gradient (through both nodes) match one call over the joined window."""
    operands, _ = make_operands("stacked", seed=3)
    x, rest = operands[0], operands[1:]
    P, T, N, _ = x.shape
    rng = np.random.default_rng(4)
    x2 = rng.standard_normal(x.shape).astype(np.float32)
    probe = rng.standard_normal((P, 2 * T, N, rest[-1].shape[-1])).astype(np.float32)

    split = [Tensor(a.copy(), requires_grad=True) for a in (x, x2, *rest)]
    out_a, h_a, c_a = F.lstm(split[0], *split[2:])
    out_b, h_b, c_b = F.lstm(split[1], *split[2:6], h_a, c_a)
    ((out_a * Tensor(probe[:, :T])).sum() + (out_b * Tensor(probe[:, T:])).sum()).backward()

    joined = [Tensor(a.copy(), requires_grad=True)
              for a in (np.concatenate([x, x2], axis=1), *rest)]
    out, h_T, c_T = F.lstm(*joined)
    (out * Tensor(probe)).sum().backward()

    close = dict(rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(np.concatenate([out_a.data, out_b.data], axis=1), out.data,
                               **close)
    np.testing.assert_allclose(h_b.data, h_T.data, **close)
    np.testing.assert_allclose(c_b.data, c_T.data, **close)
    np.testing.assert_allclose(np.concatenate([split[0].grad, split[1].grad], axis=1),
                               joined[0].grad, **close)
    for name, got, want in zip(OPERANDS[1:], split[2:], joined[1:]):
        np.testing.assert_allclose(got.grad, want.grad, err_msg=name, **close)


@pytest.mark.parametrize("tiny", [True, False], ids=["below_floor", "above_floor"])
def test_flushes_below_the_floor_like_the_composite_cell(tiny):
    """Zero weights fix every gate: σ(i) = σ(−80) is itself flushed to 0 and
    σ(f) = σ(−20) ≈ 2e-9, so c_1 = σ(f)·c0 lands at ≈ 2e-31 — below the
    1e-30 floor, and flushed to 0 — for c0 = 1e-22, and stays normal for
    c0 = 1e-12.  Likewise an output gradient of 1e-32 is flushed on arrival
    and one of 1e-20 is not.  The op and the composite cell agree exactly."""
    H = 2
    bias_ih = np.repeat(np.array([-80.0, -20.0, 0.0, 0.0], np.float32), H)
    operands = (np.ones((1, 1, 3), np.float32), np.zeros((4 * H, 3), np.float32),
                np.zeros((4 * H, H), np.float32), bias_ih, np.zeros(4 * H, np.float32),
                np.zeros((1, H), np.float32), np.full((1, H), 1e-22 if tiny else 1e-12, np.float32))
    scale = np.float32(1e-32 if tiny else 1e-20)
    probes = (np.full((1, 1, H), scale), np.zeros((1, H), np.float32),
              np.zeros((1, H), np.float32))
    fused_out, fused_grads = run_op(F.lstm, operands, probes)
    oracle_out, oracle_grads = run_op(composite_lstm, operands, probes)
    for got, want in zip(fused_out + fused_grads, oracle_out + oracle_grads):
        np.testing.assert_array_equal(got, want)
    assert (fused_out[2] == 0).all() == tiny
    assert (fused_grads[OPERANDS.index("c0")] == 0).all() == tiny


def test_eval_call_allocates_no_backward_workspaces():
    """Under ``no_grad`` the op keeps one step of activations and allocates
    no gradient workspace: its peak allocation stays within half a
    ``dgates``-sized array of the two window-sized forward arrays (the
    hidden/cell output and the hoisted input projection), while the
    training call's exceeds it by several."""
    P, T, N, D, H = 2, 16, 32, 32, 32
    rng = np.random.default_rng(6)
    operands = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                for s in ((P, T, N, D), (P, 4 * H, D), (P, 4 * H, H), (P, 4 * H), (P, 4 * H))]
    state = [Tensor(np.zeros((P, N, H), np.float32)) for _ in range(2)]
    window_bytes = 4 * (2 * P * T * N * H + P * T * N * 4 * H)
    d_gates_bytes = 4 * P * T * N * 4 * H

    def peak(mode):
        tracemalloc.start()
        try:
            with mode:
                out = F.lstm(*operands, *state)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (eval_out, _, _), eval_peak = peak(no_grad())
    (train_out, _, _), train_peak = peak(contextlib.nullcontext())
    assert not eval_out.requires_grad and train_out.requires_grad
    np.testing.assert_array_equal(eval_out.data, train_out.data)
    assert eval_peak < window_bytes + d_gates_bytes / 2
    assert train_peak > eval_peak + 3 * d_gates_bytes


# ---------------------------------------------------------------------- #
# equivalences, bit for bit
# ---------------------------------------------------------------------- #
class TestStackedEqualsPerReplicaLoop:
    """``LSTM.forward_batched`` over ``P`` stacked replicas against the former
    per-replica ``LSTM.forward`` (``tests/reference_forward.py``) on each
    replica alone: outputs, final states and the
    gradients of the input, the initial states and every parameter, with the
    loss reading the output sequence and every layer's final state."""

    D, H = 4, 5

    @pytest.mark.parametrize("P", [1, 2, 4, 8])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("T", [1, 5])
    @pytest.mark.parametrize("N", [1, 3])
    def test_bit_identical(self, P, layers, T, N):
        D, H = self.D, self.H
        rng = np.random.default_rng(1000 * P + 100 * layers + 10 * T + N)
        template = nn.LSTM(D, H, num_layers=layers)
        deltas = [[(0.1 * rng.standard_normal(q.shape)).astype(np.float32)
                   for q in template.parameters()] for _ in range(P)]

        def lstms():
            made = [nn.LSTM(D, H, num_layers=layers) for _ in range(P)]
            for module, per_param in zip(made, deltas):
                for param, delta in zip(module.parameters(), per_param):
                    param.data += delta
            return made

        def draw(*shape):
            return rng.standard_normal(shape).astype(np.float32)

        x, probe = draw(P, T, N, D), draw(P, T, N, H)
        states = [(draw(P, N, H), draw(P, N, H)) for _ in range(layers)]
        state_probes = [(draw(P, N, H), draw(P, N, H)) for _ in range(layers)]

        def run(module, x, states, probe, state_probes, *stack):
            xt = Tensor(x.copy(), requires_grad=True)
            st = [(Tensor(h.copy(), requires_grad=True), Tensor(c.copy(), requires_grad=True))
                  for h, c in states]
            out, final = (module.forward_batched(xt, st, stack=stack[0]) if stack
                          else reference_forward(module, xt, st))
            loss = (out * Tensor(probe)).sum()
            for (h, c), (ph, pc) in zip(final, state_probes):
                loss = loss + (h * Tensor(ph)).sum() + (c * Tensor(pc)).sum()
            loss.backward()
            return out, final, xt, st

        stacked = lstms()
        stack = ReplicaStack(stacked, WorldFlatBuffers(stacked))
        stack.begin_iteration()
        out, final, xt, st = run(stacked[0], x, states, probe, state_probes, stack)
        for p, module in enumerate(lstms()):
            out_p, final_p, xp, st_p = run(
                module, x[p], [(h[p], c[p]) for h, c in states], probe[p],
                [(ph[p], pc[p]) for ph, pc in state_probes])
            np.testing.assert_array_equal(out.data[p], out_p.data)
            np.testing.assert_array_equal(xt.grad[p], xp.grad)
            for (h, c), (h_p, c_p) in zip(final, final_p):
                np.testing.assert_array_equal(h.data[p], h_p.data)
                np.testing.assert_array_equal(c.data[p], c_p.data)
            for (h0, c0), (h0_p, c0_p) in zip(st, st_p):
                np.testing.assert_array_equal(h0.grad[p], h0_p.grad)
                np.testing.assert_array_equal(c0.grad[p], c0_p.grad)
            for (name, param), param_p in zip(stacked[0].named_parameters(),
                                               module.parameters()):
                np.testing.assert_array_equal(stack.tensor(param).grad[p], param_p.grad,
                                              err_msg=name)


class TestReplayEqualsEager:
    """``x = u @ W`` feeds the op, so the op's ``dx`` workspace becomes a
    matmul output's gradient, which matmul's backward scales in place; the
    state is carried from window to window through owned input buffers, as
    the language-model executor carries it, and the parameters take an
    in-place step between windows."""

    P, T, N, K, D, H = 2, 4, 3, 5, 4, 3

    def params(self, rng):
        shapes = ((self.P, 1, self.K, self.D), (self.P, 4 * self.H, self.D),
                  (self.P, 4 * self.H, self.H), (self.P, 4 * self.H), (self.P, 4 * self.H))
        return [Tensor((0.5 * rng.standard_normal(s)).astype(np.float32), requires_grad=True)
                for s in shapes]

    def graph(self, u_buf, h_buf, c_buf, params, probes):
        W, *lstm_params = params
        out, h_T, c_T = F.lstm(Tensor(u_buf).matmul(W), *lstm_params,
                               Tensor(h_buf), Tensor(c_buf))
        loss = sum((o * p).sum() for o, p in zip((out, h_T, c_T), probes))
        return loss, h_T, c_T

    def test_bit_identical(self):
        eager_params, taped_params = self.params(np.random.default_rng(7)), \
            self.params(np.random.default_rng(7))
        rng = np.random.default_rng(8)
        probes = [Tensor(rng.standard_normal(s).astype(np.float32)) for s in (
            (self.P, self.T, self.N, self.H), (self.P, self.N, self.H), (self.P, self.N, self.H))]
        inputs = [rng.standard_normal((self.P, self.T, self.N, self.K)).astype(np.float32)
                  for _ in range(4)]
        zeros = np.zeros((self.P, self.N, self.H), np.float32)

        u_buf, h_buf, c_buf = inputs[0].copy(), zeros.copy(), zeros.copy()
        tape = Tape()
        with recording(tape):
            loss, h_T, c_T = self.graph(u_buf, h_buf, c_buf, taped_params, probes)
        replayer = TapeReplayer(tape, loss)
        assert tape.valid and Counter(node.op for node in tape.nodes)["lstm"] == 1

        eager_state = (zeros, zeros)
        for step, u in enumerate(inputs):
            for p in eager_params + taped_params:
                p.grad = None
            eager_loss, eager_h, eager_c = self.graph(u.copy(), *eager_state, eager_params,
                                                      probes)
            eager_loss.backward()
            if step == 0:
                loss.backward()
                taped_loss = loss.data
            else:
                np.copyto(h_buf, h_T.data)        # carried, as the executor does
                np.copyto(c_buf, c_T.data)
                np.copyto(u_buf, u)
                taped_loss = replayer.replay()
            assert taped_loss == eager_loss.data
            np.testing.assert_array_equal(h_T.data, eager_h.data)
            np.testing.assert_array_equal(c_T.data, eager_c.data)
            for taped, eager in zip(taped_params, eager_params):
                np.testing.assert_array_equal(taped.grad, eager.grad)
            eager_state = (eager_h.data.copy(), eager_c.data.copy())
            for p in eager_params + taped_params:       # an optimizer step, in place
                p.data -= 0.1 * p.grad


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("T", [1, 5])
def test_language_model_executor_replays_like_its_eager_oracle(layers, T):
    """Three carried windows, then a fresh epoch: gradients, losses and the
    carried state of the recording executor equal the never-recording one."""
    P, N = 3, 2

    def model():
        return LSTMLanguageModel(vocab_size=23, embedding_dim=6, hidden_size=5,
                                 num_layers=layers, seed=11)

    rng = np.random.default_rng(9)
    template = model()
    deltas = [[(0.05 * rng.standard_normal(q.shape)).astype(np.float32)
               for q in template.parameters()] for _ in range(P)]

    def world():
        replicas = [model() for _ in range(P)]
        for replica, per_param in zip(replicas, deltas):
            for param, delta in zip(replica.parameters(), per_param):
                param.data += delta
        return replicas, WorldFlatBuffers(replicas)

    eager_replicas, eager_world = world()
    replicas, taped_world = world()
    eager = EagerLanguageModelExecutor(eager_replicas, eager_world)
    taped = build_replica_executor(replicas, taped_world, "language_model")
    assert type(taped) is BatchedLanguageModelExecutor
    windows = [(rng.integers(0, 23, size=(P, T, N)), rng.integers(0, 23, size=(P, T, N)))
               for _ in range(3)]
    for _epoch in range(2):
        eager_state = taped_state = None
        for tokens, targets in windows:
            eager_losses, eager_state = eager.forward_backward(tokens, targets, eager_state)
            taped_losses, taped_state = taped.forward_backward(tokens, targets, taped_state)
            assert taped_losses == eager_losses
            np.testing.assert_array_equal(taped_world.grad_matrix, eager_world.grad_matrix)
            for (eh, ec), (th, tc) in zip(eager_state, taped_state):
                np.testing.assert_array_equal(th.data, eh.data)
                np.testing.assert_array_equal(tc.data, ec.data)
    assert taped.tape_stats == {"recorded": 1, "replays": 5, "eager": 0}


def test_lstm_ptb_tape_has_one_lstm_node_and_no_cell_graph():
    """lstm_ptb/tiny at the benchmark's signature ``(P, T, N) = (8, 12, 8)``:
    the recorded graph holds one ``lstm`` node and none of the composite
    cell's gate nodes (286 recorded ops, 53 replay steps and 295 backward
    nodes before the op; the counts after are pinned in the numerics
    ledger).  The only ``getitem`` views
    are the op's outputs, and the decoder and loss are one ``lm_head`` node:
    no decoder ``transpose`` / ``matmul`` / bias ``add`` and no separate
    ``cross_entropy_batched``."""
    trainer = DistributedTrainer(TrainerConfig(
        model="lstm_ptb", preset="tiny", algorithm="a2sgd", world_size=8, epochs=1,
        max_iterations_per_epoch=2, num_train=2000, num_test=100, seed=0))
    trainer.train()
    ((signature, recording_),) = trainer.executor._recordings.items()
    assert signature == (8, 12, 8)
    replayer = recording_.replayer
    topo = replayer._topo
    ops = Counter(node.op for node in topo)
    assert ops["lstm"] == 1
    for op in ("sigmoid", "tanh", "mul", "flush_subnormals", "stack", "concat"):
        assert ops[op] == 0, op
    assert all(node._parents[0].op == "lstm" for node in topo if node.op == "getitem")
    assert ops["lm_head"] == 1
    for op in ("transpose", "matmul", "add", "cross_entropy_batched"):
        assert ops[op] == 0, op
    pinned = LEDGER["tape"]["lstm_taped_a2sgd"]
    assert (replayer.stats["recorded_ops"], replayer.stats["replay_steps"], len(topo)) \
        == (pinned["recorded_ops"], pinned["replay_steps"], pinned["backward_nodes"])


# ---------------------------------------------------------------------- #
# the shared stable sigmoid
# ---------------------------------------------------------------------- #
def previous_sigmoid(x):
    """``Tensor.sigmoid``'s forward before the shared helper, verbatim."""
    neg_abs = -np.abs(x)
    exp_neg = np.exp(neg_abs)
    out_data = np.where(x >= 0, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))
    out_data *= out_data >= _FLUSH_FLOOR
    return out_data


def sigmoid_inputs():
    """Special values, the flush boundary (σ(x) ≈ eˣ crosses 1e-30 at
    x ≈ −69.08), the ranges where e^−|x| is subnormal or 0, and random values."""
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 88.0, -88.0,
                        88.7, -88.7, 104.0, -104.0, -69.0, -69.05, -69.07, -69.08,
                        -69.09, -69.1, -70.0, 1e-30, -1e-30, 1e-45, -1e-45, 1.0, -1.0],
                       dtype=np.float32)
    boundary = np.linspace(-69.2, -68.9, 301, dtype=np.float32)
    noise = (40.0 * np.random.default_rng(10).standard_normal(4000)).astype(np.float32)
    return np.concatenate([special, boundary, noise])


class TestStableSigmoid:
    def test_eager_matches_the_previous_formula_bit_for_bit(self):
        x = sigmoid_inputs()
        for shape in (x.shape, (len(x) // 5, 5)):
            data = x[:np.prod(shape)].reshape(shape)
            got = Tensor(data).sigmoid().data
            np.testing.assert_array_equal(got.view(np.uint32),
                                          previous_sigmoid(data).view(np.uint32))
        got = Tensor(x.reshape(-1, 2)[:, 1]).sigmoid().data       # a strided input
        np.testing.assert_array_equal(got.view(np.uint32),
                                      previous_sigmoid(x.reshape(-1, 2)[:, 1]).view(np.uint32))

    def test_replay_matches_the_previous_formula_bit_for_bit(self):
        x = sigmoid_inputs()
        buf = np.zeros_like(x)
        tape = Tape()
        with recording(tape):
            y = Tensor(buf).sigmoid()
        assert len(tape.steps) == 1
        for data in (x, -x, x[::-1].copy()):
            np.copyto(buf, data)
            for step in tape.steps:
                step()
            np.testing.assert_array_equal(y.data.view(np.uint32),
                                          previous_sigmoid(data).view(np.uint32))
