"""Tests for the strided-slice patch gather/scatter behind conv2d and pooling.

The oracle is the pre-PR-17 index-array kernel (``_im2col_indices`` +
fancy-index ``_im2col`` + ``np.add.at`` ``_col2im``), kept verbatim below:
the gather is pure data movement and the scatter adds every element's
contributions in the same ascending ``(ki, kj)`` order, so both must agree
with it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, functional as F
from repro.tensor.functional import _gather_patches, _scatter_patches
from repro.tensor.tape import Tape, TapeReplayer, recording

from tests.reference_forward import max_pool2d as reference_max_pool2d


# ---------------------------------------------------------------------- #
# Verbatim pre-PR-17 kernels (src/repro/tensor/functional.py at d0de95d).
# ---------------------------------------------------------------------- #
def _im2col_indices(x_shape, kernel, stride, padding):
    """Compute the gather indices turning NCHW patches into columns."""
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"kernel {kernel} with stride {stride} does not fit input {h}x{w}")

    i0 = np.repeat(np.arange(kernel), kernel)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kernel * kernel).reshape(-1, 1)
    return k, i, j, out_h, out_w


def _im2col(x, kernel, stride, padding):
    """Rearrange NCHW image patches into a (C*K*K, N*OH*OW) matrix."""
    n, c, h, w = x.shape
    if padding > 0:
        x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        x_padded = x
    k, i, j, out_h, out_w = _im2col_indices(x.shape, kernel, stride, padding)
    cols = x_padded[:, k, i, j]                       # (N, C*K*K, OH*OW)
    cols = cols.transpose(1, 2, 0).reshape(c * kernel * kernel, -1)
    return cols, (k, i, j, out_h, out_w, x_padded.shape)


def _col2im(cols, x_shape, kernel, stride, padding, cache):
    """Scatter columns back into an NCHW image (adjoint of :func:`_im2col`)."""
    n, c, h, w = x_shape
    k, i, j, out_h, out_w, padded_shape = cache
    x_padded = np.zeros(padded_shape, dtype=cols.dtype)
    cols_reshaped = cols.reshape(c * kernel * kernel, -1, n).transpose(2, 0, 1)
    np.add.at(x_padded, (slice(None), k, i, j), cols_reshaped)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


def bits(a):
    """The ``uint32`` view of ``a``, every NaN mapped to one bit pattern.

    Signed zeros, infinities and every finite value are compared exactly.
    Which operand's sign/payload survives ``NaN + NaN`` is left to the
    compiled add loop (``np.add.at`` and ``+=`` differ on this host), so only
    the *positions* of NaNs are pinned.
    """
    a = np.array(a, dtype=np.float32)
    a[np.isnan(a)] = np.nan
    return a.view(np.uint32)


def with_specials(a, rng):
    """Overwrite a scattering of entries with -0.0, +/-inf and NaN."""
    flat = a.reshape(-1)
    picks = rng.choice(flat.size, size=max(4, flat.size // 6), replace=False)
    flat[picks] = rng.choice(np.array([-0.0, 0.0, np.inf, -np.inf, np.nan], dtype=np.float32),
                             size=picks.size)
    return a


# ---------------------------------------------------------------------- #
# oracle: new helpers == old helpers on the uint32 view
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("P", [1, 4])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3, 5])
class TestMatchesIndexArrayKernel:
    n, c, h, w = 3, 2, 7, 9

    def test_gather(self, kernel, stride, padding, P):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
        n, c, h, w = self.n, self.c, self.h, self.w
        x = with_specials(rng.standard_normal((P, n, c, h, w)).astype(np.float32), rng)
        old, cache = _im2col(x.reshape(P * n, c, h, w), kernel, stride, padding)
        out_h, out_w = cache[3:5]
        ckk = c * kernel * kernel
        expected = old.reshape(ckk, out_h * out_w, P, n).transpose(2, 0, 1, 3)

        new = _gather_patches(x, kernel, stride, padding)
        assert new.shape == (P, c, kernel, kernel, out_h, out_w, n)
        assert new.flags.c_contiguous
        np.testing.assert_array_equal(bits(new.reshape(P, ckk, out_h * out_w, n)),
                                      bits(expected))
        # Refreshing a caller-owned workspace (tape replay) writes the same bits.
        workspace = np.full_like(new, 7.0)
        assert _gather_patches(x, kernel, stride, padding, out=workspace) is workspace
        np.testing.assert_array_equal(bits(workspace), bits(new))

    def test_scatter(self, kernel, stride, padding, P):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding + 1000)
        n, c, h, w = self.n, self.c, self.h, self.w
        _, cache = _im2col(np.zeros((P * n, c, h, w), dtype=np.float32), kernel, stride, padding)
        out_h, out_w = cache[3:5]
        ckk = c * kernel * kernel
        d = with_specials(rng.standard_normal((P, c, kernel, kernel, out_h, out_w, n))
                          .astype(np.float32), rng)
        dcols = np.ascontiguousarray(
            d.reshape(P, ckk, out_h * out_w, n).transpose(1, 2, 0, 3)).reshape(ckk, -1)
        with np.errstate(invalid="ignore"):      # inf + -inf meets in some elements
            expected = _col2im(dcols, (P * n, c, h, w), kernel, stride, padding, cache)
            new = _scatter_patches(d, (P, n, c, h, w), kernel, stride, padding)
        assert new.shape == (P, n, c, h, w)
        np.testing.assert_array_equal(bits(new).reshape(P * n, c, h, w), bits(expected))


@settings(max_examples=60, deadline=None)
@given(kernel=st.integers(1, 4), stride=st.integers(1, 3), padding=st.integers(0, 2),
       P=st.integers(1, 3), n=st.integers(1, 3), c=st.integers(1, 3),
       extra_h=st.integers(0, 5), extra_w=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_scatter_is_adjoint_of_gather(kernel, stride, padding, P, n, c, extra_h, extra_w, seed):
    """<gather(x), d> == <x, scatter(d)> for every geometry the kernel fits."""
    h = max(1, kernel - 2 * padding) + extra_h
    w = max(1, kernel - 2 * padding) + extra_w
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((P, n, c, h, w))
    patches = _gather_patches(x, kernel, stride, padding)
    d = rng.standard_normal(patches.shape)
    lhs = float((patches * d).sum())
    rhs = float((x * _scatter_patches(d, x.shape, kernel, stride, padding)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------- #
# pooling fallback (odd sizes / stride != kernel) rides the same helpers
# ---------------------------------------------------------------------- #
def naive_max_pool(x, kernel, stride, grad):
    """Window-loop max pool: outputs, and ``grad`` routed to each window's first max."""
    n, c, h, w = x.shape
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    dx = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    window = x[b, ch, i * stride:i * stride + kernel,
                               j * stride:j * stride + kernel]
                    ki, kj = np.unravel_index(window.argmax(), window.shape)
                    out[b, ch, i, j] = window[ki, kj]
                    dx[b, ch, i * stride + ki, j * stride + kj] += grad[b, ch, i, j]
    return out, dx


POOL_CASES = [  # (h, w, kernel, stride)
    (7, 5, 2, 2),    # odd sizes, trailing row/column dropped
    (7, 9, 3, 2),    # overlapping windows
    (6, 8, 2, 3),    # gaps between windows
    (5, 5, 3, 1),    # dense overlap
]


class TestMaxPoolFallback:
    @pytest.mark.parametrize("h,w,kernel,stride", POOL_CASES)
    def test_forward_and_backward_match_window_loop(self, rng, h, w, kernel, stride):
        x = Tensor(rng.standard_normal((2, 3, h, w)).astype(np.float32), requires_grad=True)
        out = F.max_pool2d(x, kernel=kernel, stride=stride)
        grad = rng.standard_normal(out.shape).astype(np.float32)
        (out * Tensor(grad)).sum().backward()
        expected_out, expected_dx = naive_max_pool(x.data, kernel, stride, grad)
        np.testing.assert_array_equal(out.data, expected_out)
        np.testing.assert_allclose(x.grad, expected_dx, rtol=1e-6, atol=1e-6)

    def test_tied_window_routes_gradient_to_first_max(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32), requires_grad=True)
        F.max_pool2d(x, kernel=2, stride=1).sum().backward()
        # Four overlapping 2x2 windows, each won by its top-left element.
        np.testing.assert_array_equal(
            x.grad[0, 0], np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=np.float32))

    @pytest.mark.parametrize("h,w,kernel,stride", POOL_CASES)
    def test_batched_is_bit_identical_to_per_replica(self, rng, h, w, kernel, stride):
        P = 3
        data = rng.standard_normal((P, 2, 3, h, w)).astype(np.float32)
        xb = Tensor(data.copy(), requires_grad=True)
        out_b = F.max_pool2d_batched(xb, kernel=kernel, stride=stride)
        grad = rng.standard_normal(out_b.shape).astype(np.float32)
        (out_b * Tensor(grad)).sum().backward()
        for p in range(P):
            xp = Tensor(data[p].copy(), requires_grad=True)
            out_p = reference_max_pool2d(xp, kernel=kernel, stride=stride)
            (out_p * Tensor(grad[p])).sum().backward()
            np.testing.assert_array_equal(bits(out_b.data[p]), bits(out_p.data))
            np.testing.assert_array_equal(bits(xb.grad[p]), bits(xp.grad))

    def test_taped_replay_of_batched_fallback(self, rng):
        P, kernel, stride = 2, 3, 2
        inputs = [rng.standard_normal((P, 2, 3, 7, 9)).astype(np.float32) for _ in range(3)]
        weights = rng.standard_normal((P, 2, 3, 3, 4)).astype(np.float32)

        def eager(data):
            x = Tensor(data.copy(), requires_grad=True)
            loss = (F.max_pool2d_batched(x, kernel=kernel, stride=stride)
                    * Tensor(weights)).sum()
            loss.backward()
            return loss.data.copy(), x.grad.copy()

        input_buf = np.array(inputs[0])
        x = Tensor(input_buf, requires_grad=True)
        tape = Tape()
        with recording(tape):
            loss = (F.max_pool2d_batched(x, kernel=kernel, stride=stride)
                    * Tensor(weights)).sum()
            loss.backward()
        assert tape.valid
        replayer = TapeReplayer(tape, loss)
        for data in inputs[1:]:
            x.grad = None
            np.copyto(input_buf, data)
            replayer.replay()
            expected_loss, expected_grad = eager(data)
            np.testing.assert_array_equal(bits(loss.data), bits(expected_loss))
            np.testing.assert_array_equal(bits(x.grad), bits(expected_grad))


# ---------------------------------------------------------------------- #
# a kernel that does not fit still fails at call time with the same text
# ---------------------------------------------------------------------- #
class TestKernelMustFit:
    message = r"kernel 5 with stride 1 does not fit input 3x4"

    def test_conv2d(self):
        x = Tensor(np.zeros((1, 2, 3, 4), dtype=np.float32))
        w = Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32))
        with pytest.raises(ValueError, match=self.message):
            F.conv2d(x, w)

    def test_conv2d_batched(self):
        x = Tensor(np.zeros((2, 1, 2, 3, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 1, 2, 5, 5), dtype=np.float32))
        with pytest.raises(ValueError, match=self.message):
            F.conv2d_batched(x, w)

    def test_conv2d_padding_can_make_it_fit(self):
        x = Tensor(np.zeros((1, 2, 3, 4), dtype=np.float32))
        w = Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32))
        assert F.conv2d(x, w, padding=1).shape == (1, 1, 1, 2)

    def test_max_pool2d(self):
        with pytest.raises(ValueError, match=self.message):
            F.max_pool2d(Tensor(np.zeros((1, 2, 3, 4), dtype=np.float32)), kernel=5, stride=1)

    def test_max_pool2d_batched(self):
        with pytest.raises(ValueError, match=self.message):
            F.max_pool2d_batched(Tensor(np.zeros((2, 1, 2, 3, 4), dtype=np.float32)),
                                 kernel=5, stride=1)
