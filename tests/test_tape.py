"""Unit tests for the tape layer: record once, replay bit-identically.

The executor-level guarantees live in ``test_taped_executor.py``; these tests
pin the tape machinery itself — recording, view handling,
invalidation on data-dependent ops, effects, and the replayer's contract.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F
from repro.tensor.tape import Tape, TapeReplayer, recording
from repro.tensor.tensor import (
    active_tape,
    invalidate_active_tape,
    record_tape_effect,
    set_active_tape,
)


def eager_mlp(W, Bv, x):
    """Reference eager forward/backward for the little graph under test."""
    w, b = Tensor(W.copy(), requires_grad=True), Tensor(Bv.copy(), requires_grad=True)
    h = (Tensor(x.copy()).matmul(w) + b).relu()
    loss = (h * h).sum()
    loss.backward()
    return float(loss.data), w.grad.copy(), b.grad.copy()


class TestRecordReplay:
    def test_replay_is_bit_identical_to_eager_recompute(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((12, 8)).astype(np.float32)
        Bv = rng.standard_normal((8,)).astype(np.float32)
        inputs = [rng.standard_normal((5, 12)).astype(np.float32) for _ in range(3)]

        input_buf = np.array(inputs[0])
        w, b = Tensor(W.copy(), requires_grad=True), Tensor(Bv.copy(), requires_grad=True)
        tape = Tape()
        with recording(tape):
            h = (Tensor(input_buf).matmul(w) + b).relu()
            loss = (h * h).sum()
            loss.backward()
        assert tape.valid
        replayer = TapeReplayer(tape, loss)

        expected = eager_mlp(W, Bv, inputs[0])
        assert float(loss.data) == expected[0]
        np.testing.assert_array_equal(w.grad, expected[1])
        np.testing.assert_array_equal(b.grad, expected[2])

        for x in inputs[1:]:
            w.grad = b.grad = None
            np.copyto(input_buf, x)
            out = replayer.replay()
            expected = eager_mlp(W, Bv, x)
            assert float(out) == expected[0]
            np.testing.assert_array_equal(w.grad, expected[1])
            np.testing.assert_array_equal(b.grad, expected[2])

    def test_recording_does_not_change_eager_results(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((6, 4)).astype(np.float32)
        Bv = rng.standard_normal((4,)).astype(np.float32)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        plain = eager_mlp(W, Bv, x)
        with recording(Tape()):
            recorded = eager_mlp(W, Bv, x)
        assert plain[0] == recorded[0]
        np.testing.assert_array_equal(plain[1], recorded[1])
        np.testing.assert_array_equal(plain[2], recorded[2])

    def test_view_ops_do_not_emit_replay_steps(self):
        x = Tensor(np.arange(12, dtype=np.float32), requires_grad=True)
        tape = Tape()
        with recording(tape):
            loss = x.reshape(3, 4).transpose((1, 0)).sum()
            loss.backward()
        assert tape.valid
        assert tape.view_ops == 2

    def test_effects_run_on_every_replay(self):
        calls = []
        x_buf = np.ones(4, dtype=np.float32)
        tape = Tape()
        with recording(tape):
            loss = (Tensor(x_buf, requires_grad=True) * 2.0).sum()
            record_tape_effect(lambda: calls.append(len(calls)))
            loss.backward()
        replayer = TapeReplayer(tape, loss)
        replayer.replay()
        replayer.replay()
        assert calls == [0, 1]


class TestInvalidation:
    @pytest.mark.parametrize("build", [
        lambda x: (x > 0.0).sum(),                        # comparison
        lambda x: F.softmax(x).sum(),                     # reduction w/o rule
        lambda x: F.dropout(x, 0.5, np.random.default_rng(0)).sum(),  # stochastic mask
        lambda x: Tensor.where(x.data > 0, x, x * 2.0).sum(),
    ], ids=["comparison", "softmax", "dropout", "where"])
    def test_data_dependent_ops_invalidate(self, build):
        tape = Tape()
        with recording(tape):
            build(Tensor(np.linspace(-1, 1, 8, dtype=np.float32)))
        assert not tape.valid
        assert tape.invalid_reason

    def test_invalid_tape_refuses_replayer(self):
        tape = Tape()
        with recording(tape):
            x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
            invalidate_active_tape("test reason")
            loss = (x * 2.0).sum()
            loss.backward()
        with pytest.raises(ValueError, match="test reason"):
            TapeReplayer(tape, loss)

    def test_first_invalidation_reason_is_kept(self):
        tape = Tape()
        tape.invalidate("first")
        tape.invalidate("second")
        assert tape.invalid_reason == "first"


class TestActiveTapePlumbing:
    def test_recording_restores_previous_tape(self):
        assert active_tape() is None
        outer = Tape()
        with recording(outer):
            assert active_tape() is outer
            with recording(Tape()):
                assert active_tape() is not outer
            assert active_tape() is outer
        assert active_tape() is None

    def test_set_active_tape_returns_previous(self):
        tape = Tape()
        assert set_active_tape(tape) is None
        assert set_active_tape(None) is tape

    def test_invalidate_without_active_tape_is_noop(self):
        invalidate_active_tape("nobody listening")   # must not raise

    def test_seed_grad_shape_is_checked(self):
        tape = Tape()
        with recording(tape):
            loss = (Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True) * 2.0).sum(axis=1)
            loss.backward(np.ones(2, dtype=np.float32))
        with pytest.raises(ValueError):
            TapeReplayer(tape, loss, seed_grad=np.ones(5, dtype=np.float32))
