"""``F.lm_head`` ≡ the decoder ``Linear`` + ``cross_entropy_batched`` composite.

The language model's decoder GEMM, bias and softmax cross-entropy run as one
tape node.  The composite they replaced — the stacked ``h @ Wᵀ`` matmul on
the transposed view, the broadcast bias add and ``cross_entropy_batched`` —
is the oracle here: the loss and the ``h`` / ``W`` / ``b`` gradients must
match it bit for bit, eager and replayed, per replica slice, and on the
no-grad evaluation path.
"""

import numpy as np
import pytest

from repro.core.metrics import evaluate_language_model
from repro.data.synthetic_text import LanguageModelBatcher
from repro.models import LSTMLanguageModel
from repro.tensor import Tensor, functional as F, no_grad
from repro.tensor.tape import Tape, TapeReplayer, recording

#: lstm_ptb/tiny at the benchmark's signature: P = 8, T·N = 12·8, H = 32,
#: V = 200; then a ragged row count and a single replica.
SHAPES = [(8, 96, 32, 200), (3, 37, 16, 50), (1, 20, 8, 30)]


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def make_operands(rng, P, M, H, V):
    h = np.tanh(rng.standard_normal((P, M, H))).astype(np.float32)
    h[:, ::7] *= 40.0                  # a few rows with a wide logit range
    w = (rng.standard_normal((P, V, H)) * 0.5).astype(np.float32)
    b = (rng.standard_normal((P, V)) * 0.1).astype(np.float32)
    # Two words no row predicts: word 0's gradient lies between float32's
    # smallest normal and the 1e-30 GEMM floor (summed into db, flushed out
    # of dh and dW); word 1's probability is subnormal (flushed everywhere).
    b[:, 0] = -80.0
    b[:, 1] = -95.0
    targets = rng.integers(0, V, size=(P, M))
    return h, w, b, targets


def leaves(h, w, b):
    return tuple(Tensor(a.copy(), requires_grad=True) for a in (h, w, b))


def composite(h, w, b, targets):
    P, _, V = b.shape[0], None, b.shape[-1]
    logits = h.matmul(w.transpose((0, 2, 1))) + b.reshape(P, 1, V)
    return F.cross_entropy_batched(logits, targets)


def run(op, h, w, b, targets):
    """Loss and the three gradients of one forward + backward."""
    th, tw, tb = leaves(h, w, b)
    loss = op(th, tw, tb, targets)
    loss.backward(np.ones(loss.shape, dtype=np.float32))
    return loss.data.copy(), th.grad, tw.grad, tb.grad


@pytest.mark.parametrize("shape", SHAPES)
def test_lm_head_equals_composite(shape, rng):
    operands = make_operands(rng, *shape)
    got = run(F.lm_head, *operands)
    want = run(composite, *operands)
    for name, g, w in zip(("loss", "dh", "dW", "db"), got, want):
        np.testing.assert_array_equal(bits(g), bits(w), err_msg=name)


@pytest.mark.parametrize("shape", SHAPES)
def test_lm_head_equals_taped_composite(shape, rng):
    """The composite under a tape takes the matmul node's workspace
    backward; it is the same arithmetic."""
    operands = make_operands(rng, *shape)
    got = run(F.lm_head, *operands)
    with recording(Tape()):
        want = run(composite, *operands)
    for name, g, w in zip(("loss", "dh", "dW", "db"), got, want):
        np.testing.assert_array_equal(bits(g), bits(w), err_msg=name)


@pytest.mark.parametrize("shape", SHAPES)
def test_replay_equals_eager(shape, rng):
    h, w, b, targets = make_operands(rng, *shape)
    th, tw, tb = leaves(h, w, b)
    target_buf = targets.copy()
    tape = Tape()
    with recording(tape):
        loss = F.lm_head(th, tw, tb, target_buf)
    assert tape.valid and len(tape.steps) == 1
    replayer = TapeReplayer(tape, loss)
    loss.backward(np.ones(loss.shape, dtype=np.float32))
    for _ in range(2):
        h2, w2, b2, targets2 = make_operands(rng, *shape)
        for leaf, new in ((th, h2), (tw, w2), (tb, b2)):
            np.copyto(leaf.data, new)
            leaf.grad = None
        np.copyto(target_buf, targets2)
        replayed = replayer.replay().copy()
        want = run(F.lm_head, h2, w2, b2, targets2)
        for name, g, w_ in zip(("loss", "dh", "dW", "db"),
                               (replayed, th.grad, tw.grad, tb.grad), want):
            np.testing.assert_array_equal(bits(g), bits(w_), err_msg=name)


@pytest.mark.parametrize("shape", SHAPES[:2])
def test_replica_slice_equals_single_replica_call(shape, rng):
    h, w, b, targets = make_operands(rng, *shape)
    loss, dh, dw, db = run(F.lm_head, h, w, b, targets)
    for p in range(shape[0]):
        one = run(F.lm_head, h[p], w[p], b[p], targets[p])
        assert one[0].shape == ()
        for name, g, w_ in zip(("loss", "dh", "dW", "db"), one, (loss, dh, dw, db)):
            np.testing.assert_array_equal(bits(g), bits(w_[p]), err_msg=f"{name}[{p}]")


@pytest.mark.parametrize("shape", SHAPES)
def test_no_grad_loss_equals_composite(shape, rng):
    h, w, b, targets = make_operands(rng, *shape)
    with_grad = run(F.lm_head, h, w, b, targets)[0]
    with no_grad():
        got = F.lm_head(Tensor(h), Tensor(w), Tensor(b), targets)
        want = composite(Tensor(h), Tensor(w), Tensor(b), targets)
    assert got._backward is None
    np.testing.assert_array_equal(bits(got.data), bits(want.data))
    np.testing.assert_array_equal(bits(got.data), bits(with_grad))


def test_model_loss_equals_logits_then_cross_entropy(rng):
    """The per-replica model call with targets — the evaluation path — gives
    the loss bits of its logits through ``F.cross_entropy``, and carries the
    same state."""
    model = LSTMLanguageModel(vocab_size=200, embedding_dim=32, hidden_size=32,
                              num_layers=1, seed=0)
    tokens = rng.integers(0, 200, size=(12, 8))
    targets = rng.integers(0, 200, size=(12, 8))
    with no_grad():
        loss, state = model(tokens, None, targets)
        logits, ref_state = model(tokens, None)
        want = F.cross_entropy(logits, targets.reshape(-1))
    assert loss.shape == ()
    np.testing.assert_array_equal(bits(loss.data), bits(want.data))
    for (h, c), (rh, rc) in zip(state, ref_state):
        np.testing.assert_array_equal(h.data, rh.data)
        np.testing.assert_array_equal(c.data, rc.data)


def test_evaluate_language_model_matches_composite_perplexity(rng):
    model = LSTMLanguageModel(vocab_size=50, embedding_dim=16, hidden_size=16,
                              num_layers=1, seed=1)
    batcher = LanguageModelBatcher(rng.integers(0, 50, size=2_000), batch_size=8, seq_len=12)
    total, count, state = 0.0, 0, None
    with no_grad():
        for i, (inputs, targets) in enumerate(batcher.batches()):
            if i >= 5:
                break
            logits, state = model(inputs, state)
            state = model.detach_state(state)
            total += float(F.cross_entropy(logits, targets.reshape(-1)).item()) * targets.size
            count += targets.size
    assert evaluate_language_model(model, batcher, max_batches=5) == float(np.exp(total / count))


def test_rejects_mismatched_operands(rng):
    h, w, b, targets = make_operands(rng, 2, 5, 4, 6)
    with pytest.raises(ValueError, match="decoder"):
        F.lm_head(Tensor(h), Tensor(w[:, :, :3]), Tensor(b), targets)
    with pytest.raises(ValueError, match="targets"):
        F.lm_head(Tensor(h), Tensor(w), Tensor(b), targets[:, :4])
