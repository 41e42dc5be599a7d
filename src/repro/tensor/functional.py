"""Functional neural-network operations built on :class:`~repro.tensor.Tensor`.

This module contains the composite operations the models need: im2col-based
2-D convolution and pooling, batch normalization, a whole-window LSTM layer,
numerically stable softmax / log-softmax / cross-entropy, linear projection,
dropout and embedding lookup.  All operations construct the autograd graph
through the primitive ops defined on :class:`Tensor`, except convolution,
pooling, batch normalization, the LSTM layer and the language-model head,
which provide hand-written backward closures for efficiency (one big GEMM, or
a few contiguous reductions, instead of many small ops).

Convolution, max pooling, cross-entropy and embedding each have one body, the
``*_batched`` op, which evaluates all ``P`` replicas of a simulated world in
one call: operands gain a leading replica axis (inputs ``(P, N, ...)``,
parameters ``(P, *shape)`` — strided views of the world's flat buffers, see
:mod:`repro.core.batched_replicas`).  The per-replica op is the P = 1 call,
so every replica slice performs exactly the arithmetic of running that
replica alone.  Batch normalization, the LSTM layer and the LM head take
either form directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor.tensor import (
    Tensor,
    _flush_below_floor,
    active_tape,
    invalidate_active_tape,
    is_grad_enabled,
    stable_sigmoid,
)


def _one(t: Tensor) -> Tensor:
    """``t`` as a stack of one replica: a leading axis of size 1."""
    return t.reshape(1, *t.shape)


# ---------------------------------------------------------------------- #
# im2col helpers
# ---------------------------------------------------------------------- #
def _gather_patches(x: np.ndarray, kernel: int, stride: int, padding: int,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Gather ``(P, N, C, H, W)`` image patches into ``(P, C, K, K, OH, OW, N)``.

    The batch axis is innermost, so flattening the result to
    ``(P, C*K*K, OH*OW*N)`` yields replica ``p``'s im2col matrix without a
    re-layout.  The image is copied once into a zero-padded batch-innermost
    scratch; each kernel offset is then one strided-slice copy.
    """
    P, n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"kernel {kernel} with stride {stride} does not fit input {h}x{w}")
    xp = np.zeros((P, c, h + 2 * padding, w + 2 * padding, n), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 4, 1)
    if out is None:
        out = np.empty((P, c, kernel, kernel, out_h, out_w, n), dtype=x.dtype)
    span_h, span_w = stride * out_h, stride * out_w
    for ki in range(kernel):
        for kj in range(kernel):
            out[:, :, ki, kj] = xp[:, :, ki:ki + span_h:stride, kj:kj + span_w:stride]
    return out


def _scatter_patches(d: np.ndarray, x_shape: Tuple[int, int, int, int, int], kernel: int,
                     stride: int, padding: int) -> np.ndarray:
    """Sum ``(P, C, K, K, OH, OW, N)`` patch gradients back into a ``(P, N, C, H, W)`` image.

    Adjoint of :func:`_gather_patches`.  Every image element receives its
    contributions in ascending ``(ki, kj)`` order starting from ``+0.0``.
    """
    P, n, c, h, w = x_shape
    out_h, out_w = d.shape[4:6]
    dxp = np.zeros((P, c, h + 2 * padding, w + 2 * padding, n), dtype=d.dtype)
    span_h, span_w = stride * out_h, stride * out_w
    for ki in range(kernel):
        for kj in range(kernel):
            dxp[:, :, ki:ki + span_h:stride, kj:kj + span_w:stride] += d[:, :, ki, kj]
    return dxp[:, :, padding:padding + h, padding:padding + w].transpose(0, 4, 1, 2, 3)


# ---------------------------------------------------------------------- #
# convolution / pooling
# ---------------------------------------------------------------------- #
def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, *,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution of an ``(N, C_in, H, W)`` input with ``(C_out, C_in, K, K)``
    filters and an optional ``(C_out,)`` bias: :func:`conv2d_batched` at P = 1."""
    out = conv2d_batched(_one(x), _one(weight), None if bias is None else _one(bias),
                         stride=stride, padding=padding)
    return out.reshape(*out.shape[1:])


def conv2d_batched(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, *,
                   stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over ``P`` stacked replicas with per-replica filters.

    The replica axis leads every operand: ``x`` is ``(P, N, C_in, H, W)``,
    ``weight`` is ``(P, C_out, C_in, K, K)`` and ``bias`` is ``(P, C_out)``.
    The image patches of all replicas are gathered with **one** im2col call,
    then one stacked GEMM per direction replaces ``P`` independent GEMMs.
    Every replica's slice performs exactly the arithmetic of convolving that
    replica alone, so forward activations and parameter gradients equal the
    :func:`conv2d` (P = 1) call on each replica bit for bit.
    """
    P, n, c_in, h, w = x.shape
    P_w, c_out, c_in_w, kh, kw = weight.shape
    if P != P_w:
        raise ValueError(f"input has {P} replicas but weight has {P_w}")
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} do not match weight channels {c_in_w}")
    if kh != kw:
        raise ValueError("only square kernels are supported")
    kernel = kh

    patches = _gather_patches(x.data, kernel, stride, padding)
    out_h, out_w = patches.shape[4:6]
    ckk = c_in * kernel * kernel
    # Replica p's block is the exact column matrix of replica p alone.
    cols_p = patches.reshape(P, ckk, out_h * out_w * n)
    w_mat = weight.data.reshape(P, c_out, ckk)
    mm = np.matmul(w_mat, cols_p)                          # (P, C_out, OH*OW*N)
    out = (mm.reshape(P, c_out, out_h * out_w, n).transpose(0, 3, 1, 2)
             .reshape(P, n, c_out, out_h, out_w))
    if bias is not None:
        out = out + bias.data.reshape(P, 1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = (grad.reshape(P, n, c_out, out_h * out_w).transpose(0, 2, 3, 1)
                        .reshape(P, c_out, -1))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(1, 3, 4)))
        if weight.requires_grad:
            weight._accumulate(np.matmul(grad_mat, cols_p.transpose(0, 2, 1))
                               .reshape(weight.shape))
        if x.requires_grad:
            dcols = np.matmul(w_mat.transpose(0, 2, 1), grad_mat)   # (P, CKK, OHOW*N)
            x._accumulate(_scatter_patches(dcols.reshape(patches.shape), x.shape,
                                           kernel, stride, padding))

    if active_tape() is None:
        return Tensor._make(out, parents, "conv2d_batched", backward)
    # Replay workspaces: cols_p and mm are refreshed in place (backward reads
    # cols_p and w_mat), and the final rearranged/bias-added result lands in
    # the same ``out`` array downstream nodes and closures reference.
    out4 = out.reshape(P, n, c_out, out_h * out_w)
    w_is_view = np.shares_memory(w_mat, weight.data)

    def replay() -> None:
        _gather_patches(x.data, kernel, stride, padding, out=patches)
        if not w_is_view:
            w_mat[...] = weight.data.reshape(P, c_out, ckk)
        np.matmul(w_mat, cols_p, out=mm)
        np.copyto(out4, mm.reshape(P, c_out, out_h * out_w, n).transpose(0, 3, 1, 2))
        if bias is not None:
            out += bias.data.reshape(P, 1, c_out, 1, 1)

    return Tensor._make(out, parents, "conv2d_batched", backward, replay)


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling of an ``(N, C, H, W)`` input over square windows:
    :func:`max_pool2d_batched` at P = 1."""
    out = max_pool2d_batched(_one(x), kernel, stride)
    return out.reshape(*out.shape[1:])


def max_pool2d_batched(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling over ``(P, N, C, H, W)`` stacked replica batches.

    Pooling has no parameters, so the replica axis simply folds into the
    window bookkeeping; each replica slice computes exactly what pooling that
    replica alone computes (same window maxima, same first-max tie-breaking,
    same scatter in the backward pass).
    """
    stride = kernel if stride is None else stride
    P, n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1

    if stride == kernel and h % kernel == 0 and w % kernel == 0:
        reshaped = x.data.reshape(P, n, c, out_h, kernel, out_w, kernel)
        out = reshaped.max(axis=(4, 6))
        argmask = (reshaped == out[:, :, :, :, None, :, None])
        window_major = argmask.transpose(0, 1, 2, 3, 5, 4, 6)     # (P,N,C,OH,OW,K,K)
        flat = window_major.reshape(P, n, c, out_h, out_w, kernel * kernel)
        first = np.zeros_like(flat)
        idx = flat.argmax(axis=-1)
        np.put_along_axis(first, idx[..., None], 1, axis=-1)
        mask = (first.reshape(P, n, c, out_h, out_w, kernel, kernel)
                     .transpose(0, 1, 2, 3, 5, 4, 6))             # back to (P,N,C,OH,K,OW,K)

        def backward(grad: np.ndarray) -> None:
            if not x.requires_grad:
                return
            g = grad[:, :, :, :, None, :, None] * mask
            x._accumulate(g.reshape(P, n, c, h, w))

        if active_tape() is None:
            return Tensor._make(out, (x,), "max_pool2d_batched", backward)

        def replay() -> None:
            win = x.data.reshape(P, n, c, out_h, kernel, out_w, kernel)
            np.max(win, axis=(4, 6), out=out)
            np.equal(win, out[:, :, :, :, None, :, None], out=argmask)
            # ``mask`` is a view of ``first``: zero it and re-scatter the
            # first-max tie-break in place so backward sees fresh winners.
            new_flat = (argmask.transpose(0, 1, 2, 3, 5, 4, 6)
                        .reshape(P, n, c, out_h, out_w, kernel * kernel))
            first[...] = False
            np.put_along_axis(first, new_flat.argmax(axis=-1)[..., None], 1, axis=-1)

        return Tensor._make(out, (x,), "max_pool2d_batched", backward, replay)

    # Strided / non-dividing windows: fold the replica axis into the im2col
    # batch together with (N, C).
    patches = _gather_patches(x.data.reshape(1, P * n * c, 1, h, w), kernel, stride, 0)
    oh, ow = patches.shape[4:6]
    cols = patches.reshape(kernel * kernel, -1)
    arg = cols.argmax(axis=0)
    out = cols[arg, np.arange(cols.shape[1])]
    out = out.reshape(oh * ow, P * n * c).T.reshape(P, n, c, oh, ow)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dcols = np.zeros_like(cols)
        gflat = grad.reshape(P * n * c, oh * ow).T.reshape(-1)
        dcols[arg, np.arange(cols.shape[1])] = gflat
        dx = _scatter_patches(dcols.reshape(patches.shape), (1, P * n * c, 1, h, w),
                              kernel, stride, 0)
        x._accumulate(dx.reshape(P, n, c, h, w))

    if active_tape() is None:
        return Tensor._make(out, (x,), "max_pool2d_batched", backward)
    col_index = np.arange(cols.shape[1])

    def replay() -> None:
        _gather_patches(x.data.reshape(1, P * n * c, 1, h, w), kernel, stride, 0, out=patches)
        arg[...] = cols.argmax(axis=0)
        np.copyto(out.reshape(P * n * c, oh * ow),
                  cols[arg, col_index].reshape(oh * ow, P * n * c).T)

    return Tensor._make(out, (x,), "max_pool2d_batched", backward, replay)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling over square windows (stride defaults to kernel)."""
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    if stride == kernel and h % kernel == 0 and w % kernel == 0:
        out_h, out_w = h // kernel, w // kernel
        reshaped = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
        out = reshaped.mean(axis=(3, 5))

        def backward(grad: np.ndarray) -> None:
            if not x.requires_grad:
                return
            g = np.repeat(np.repeat(grad, kernel, axis=2), kernel, axis=3) / (kernel * kernel)
            x._accumulate(g)

        return Tensor._make(out, (x,), "avg_pool2d", backward)
    raise NotImplementedError("avg_pool2d requires stride == kernel and exact division")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions of an NCHW tensor → (N, C)."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------- #
# normalization
# ---------------------------------------------------------------------- #
def batch_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float,
               stats: Optional[Tuple[np.ndarray, np.ndarray]] = None
               ) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Per-channel batch normalization of ``P`` replicas at once.

    ``weight`` and ``bias`` are ``(C,)`` for one replica, with ``x`` shaped
    ``(N, C, *spatial)``, or stacked ``(P, C)``, with ``x`` shaped
    ``(P, N, C, *spatial)``; either way the op views ``x`` as
    ``(P, N, C, S)`` and normalizes each (replica, channel) over its
    ``m = N·S`` values.

    Training mode (``stats`` is ``None``): the mean and the biased variance
    each come from two reductions over contiguous axes — over N on
    ``(P, N, C·S)``, then over S on ``(P, C, S)``.  Eval mode: ``stats`` is
    the running ``(mean, var)`` pair, shaped like ``weight``.  Returns
    ``(out, mean, var)`` with ``(P, C)`` statistics; in training mode they
    are workspaces that every tape replay refreshes in place.

    The backward is derived by hand, with ``x̂`` the normalized input::

        db = Σ dy        dw = Σ dy·x̂
        dx = w·inv_std/m · (m·dy − db − x̂·dw)     (training)
        dx = w·inv_std · dy                        (eval: constant statistics)

    Every array the op writes is a workspace it owns, and the eager call and
    the replay rule are one function, so a replay is bit-identical to the
    recorded pass and each replica's slice is bit-identical to the ``P = 1``
    call on that replica alone.
    """
    C = weight.shape[-1]
    P = 1 if weight.ndim == 1 else weight.shape[0]
    N = x.shape[weight.ndim - 1]
    if x.shape[weight.ndim] != C:
        raise ValueError(f"input {x.shape} does not have {C} channels at axis {weight.ndim}")
    S = int(np.prod(x.shape[weight.ndim + 1:], dtype=np.int64))
    m = N * S
    shape4 = (P, N, C, S)
    training = stats is None
    if training:
        mean = np.empty((P, C), dtype=np.float32)
        var = np.empty((P, C), dtype=np.float32)
    else:
        mean, var = (np.reshape(s, (P, C)) for s in stats)
    inv_std = np.empty((P, C), dtype=np.float32)
    partial = np.empty((P, C * S), dtype=np.float32)
    runs_backward = is_grad_enabled() and any(t.requires_grad for t in (x, weight, bias))
    # Inference (running statistics, no backward) needs no separate x̂: it
    # normalizes in place in an output laid out like ``x`` — conv outputs
    # keep the batch axis innermost, which the next conv's patch gather
    # streams.  Otherwise every workspace is C-contiguous, like the
    # gradients ``Tensor._accumulate`` copies, so the backward passes (and
    # the next ReLU's ``grad * mask``) stream their operands.
    inference = not training and not runs_backward
    out = np.empty_like(x.data) if inference else np.empty(x.shape, dtype=np.float32)
    out4 = out.reshape(shape4)
    if not np.may_share_memory(out4, out):       # x's layout has no such view
        out = np.empty(x.shape, dtype=np.float32)
        out4 = out.reshape(shape4)
    x_hat = out4 if inference else np.empty(shape4, dtype=np.float32)
    if runs_backward:
        # Gradient workspaces, handed to the parents by reference; ``dx`` also
        # serves as the dy·x̂ scratch before it is written.
        dx = np.empty(x.shape, dtype=np.float32)
        dx4 = dx.reshape(shape4)
        dw = np.empty(weight.shape, dtype=np.float32)
        db = np.empty(bias.shape, dtype=np.float32)

    def channel_sum(values: np.ndarray, total: np.ndarray) -> None:
        np.sum(values.reshape(P, N, C * S), axis=1, out=partial)
        np.sum(partial.reshape(P, C, S), axis=2, out=total)

    def forward() -> None:
        x4 = x.data.reshape(shape4)
        if training:
            channel_sum(x4, mean)
            np.multiply(mean, 1.0 / m, out=mean)
        np.subtract(x4, mean[:, None, :, None], out=x_hat)
        if training:
            np.multiply(x_hat, x_hat, out=out4)      # out4 doubles as scratch
            channel_sum(out4, var)
            np.multiply(var, 1.0 / m, out=var)
        np.add(var, eps, out=inv_std)
        np.sqrt(inv_std, out=inv_std)
        np.divide(1.0, inv_std, out=inv_std)
        np.multiply(x_hat, inv_std[:, None, :, None], out=x_hat)
        np.multiply(x_hat, weight.data.reshape(P, 1, C, 1), out=out4)
        np.add(out4, bias.data.reshape(P, 1, C, 1), out=out4)

    def backward(grad: np.ndarray) -> None:
        dy = grad.reshape(shape4)
        db2, dw2 = db.reshape(P, C), dw.reshape(P, C)
        channel_sum(dy, db2)
        np.multiply(dy, x_hat, out=dx4)
        channel_sum(dx4, dw2)
        if x.requires_grad:
            scale = (weight.data.reshape(P, C) * inv_std)[:, None, :, None]
            if training:
                # dx = scale · (dy − (db + x̂·dw) / m)
                np.multiply(x_hat, (dw2 / m)[:, None, :, None], out=dx4)
                np.add(dx4, (db2 / m)[:, None, :, None], out=dx4)
                np.subtract(dy, dx4, out=dx4)
                np.multiply(dx4, scale, out=dx4)
            else:
                np.multiply(dy, scale, out=dx4)
            x._accumulate(dx)
        if weight.requires_grad:
            weight._accumulate(dw)
        if bias.requires_grad:
            bias._accumulate(db)

    forward()
    return Tensor._make(out, (x, weight, bias), "batch_norm", backward, forward), mean, var


# ---------------------------------------------------------------------- #
# recurrent
# ---------------------------------------------------------------------- #
def lstm(x: Tensor, weight_ih: Tensor, weight_hh: Tensor, bias_ih: Tensor,
         bias_hh: Tensor, h0: Tensor, c0: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
    """One LSTM layer over a whole truncated-BPTT window, ``P`` replicas at once.

    One replica: ``x`` is ``(T, N, D)``, the parameters ``(4H, D)``,
    ``(4H, H)``, ``(4H,)``, ``(4H,)`` and the initial state ``(N, H)``.
    Stacked: every operand gains a leading replica axis ``P``.  Gates are
    stacked ``[input, forget, cell, output]`` as in ``torch.nn.LSTM``.
    Returns ``(out, h_T, c_T)``: the hidden state of every step,
    ``(…, T, N, H)``, and the final hidden / cell state, shaped like ``h0``.
    All three are views of one ``(2, …, T, N, H)`` hidden/cell node, so
    gradients enter from the output sequence and the final state alike, and
    leave through ``x``, the four parameters, ``h0`` and ``c0``.

    Forward, with ``X = x·W_ihᵀ + b_ih + b_hh`` one GEMM over all ``T·N``
    rows::

        [i, f, g, o] = [σ, σ, tanh, σ](X_t + h_{t−1}·W_hhᵀ)
        c_t = f·c_{t−1} + i·g        h_t = o·tanh(c_t)

    Backward, by hand, for t = T−1 … 0, with ``dc`` starting as the gradient
    of ``c_T``, ``dgates_T·W_hh`` as 0, and σ' = σ(1 − σ), tanh' = 1 − tanh²
    computed for the whole window first::

        dh = dout_t + dgates_{t+1}·W_hh
        dc = dc_{t+1}·f_{t+1} + dh·o·tanh'(c_t)
        dgates_t = [dc·g, dc·c_{t−1}, dc·i, dh·tanh(c_t)] ⊙ [σ'(i), σ'(f), tanh'(g), σ'(o)]

    after which ``dx = dgates·W_ih``, ``dW_ih = dgatesᵀ·x``,
    ``dW_hh = dgatesᵀ·h_{t−1}`` and ``db_ih = db_hh = Σ dgates`` are each one
    GEMM or reduction over all ``T·N`` rows: only ``h_{t−1}·W_hhᵀ`` and
    ``dgates_t·W_hh`` stay inside the time loop.  σ is
    :func:`~repro.tensor.tensor.stable_sigmoid`; ``c_t``, ``h_t`` and the
    incoming ``dh``, ``dc`` and ``dgates_t`` are flushed below
    ``_FLUSH_FLOOR``, so saturated gates cannot seed subnormal chains.

    Every array the op writes is a workspace it owns, and the eager call and
    the replay rule are one function, so a replay is bit-identical to the
    recorded pass and each replica's slice is bit-identical to the ``P = 1``
    call on that replica alone.  Gradient workspaces exist only when a
    backward will run; without one, only the current step's activations are
    kept.
    """
    G, D = weight_ih.shape[-2:]
    H = G // 4
    P = 1 if weight_ih.ndim == 2 else weight_ih.shape[0]
    if x.ndim != weight_ih.ndim + 1 or x.shape[-1] != D:
        raise ValueError(f"input {x.shape} does not match input weights {weight_ih.shape}")
    T, N = x.shape[-3:-1]
    if h0.shape != x.shape[:-3] + (N, H) or c0.shape != h0.shape:
        raise ValueError(f"state {h0.shape}/{c0.shape} does not match input {x.shape} "
                         f"with hidden size {H}")
    TN = T * N
    parents = (x, weight_ih, weight_hh, bias_ih, bias_hh, h0, c0)
    runs_backward = is_grad_enabled() and any(t.requires_grad for t in parents)
    slots = T if runs_backward else 1       # activation slots; step t uses t % slots
    hc = np.empty((2,) + x.shape[:-1] + (H,), dtype=np.float32)
    hs, cs = hc.reshape(2, P, T, N, H)
    x_proj = np.empty((P, T, N, G), dtype=np.float32)
    # Time-major, so every step's activations are one contiguous block.
    acts = np.empty((slots, P, N, G), dtype=np.float32)      # σ(i), σ(f), tanh(g), σ(o)
    tanh_c = np.empty((slots, P, N, H), dtype=np.float32)
    # Contiguous transposed weights, copied once per pass: at the lstm_ptb/tiny
    # shapes (x86-64, one OpenBLAS thread) the stacked matmul against a
    # transposed (P, 4H, ·) view measured 1.7-2.5x slower than against these.
    w_ih_t = np.empty((P, D, G), dtype=np.float32)
    w_hh_t = np.empty((P, H, G), dtype=np.float32)
    bias = np.empty((P, G), dtype=np.float32)
    pre = np.empty((P, N, G), dtype=np.float32)              # one step's pre-activations
    scratch = np.empty((P, N, G), dtype=np.float32)
    mask = np.empty((P, N, G), dtype=bool)
    small = np.empty((P, N, H), dtype=np.float32)
    small_mask = np.empty((P, N, H), dtype=bool)
    pre_g = pre[..., 2 * H:3 * H]

    def gate_views(a: np.ndarray) -> Tuple[np.ndarray, ...]:
        return tuple(a[..., k * H:(k + 1) * H] for k in range(4))

    steps = [(x_proj[:, t], acts[t % slots], *gate_views(acts[t % slots]), hs[:, t], cs[:, t],
              tanh_c[t % slots]) for t in range(T)]

    def forward() -> None:
        np.copyto(w_ih_t, weight_ih.data.reshape(P, G, D).transpose(0, 2, 1))
        np.copyto(w_hh_t, weight_hh.data.reshape(P, G, H).transpose(0, 2, 1))
        np.add(bias_ih.data.reshape(P, G), bias_hh.data.reshape(P, G), out=bias)
        np.matmul(x.data.reshape(P, TN, D), w_ih_t, out=x_proj.reshape(P, TN, G))
        np.add(x_proj, bias[:, None, None], out=x_proj)
        h_prev, c_prev = h0.data.reshape(P, N, H), c0.data.reshape(P, N, H)
        for x_t, a, i, f, g, o, h, c, tc in steps:
            np.matmul(h_prev, w_hh_t, out=pre)
            np.add(pre, x_t, out=pre)
            stable_sigmoid(pre, a, scratch, mask)
            np.tanh(pre_g, out=g)
            np.multiply(f, c_prev, out=c)
            np.multiply(i, g, out=small)
            np.add(c, small, out=c)
            _flush_below_floor(c, small, small_mask)
            np.tanh(c, out=tc)
            np.multiply(o, tc, out=h)
            _flush_below_floor(h, small, small_mask)
            h_prev, c_prev = h, c

    if runs_backward:
        d_gates = np.empty((T, P, N, G), dtype=np.float32)   # time-major, like ``acts``
        d_act = np.empty((T, P, N, G), dtype=np.float32)    # σ' per gate, 1 − g² for g
        d_tanh_c = np.empty((T, P, N, H), dtype=np.float32)
        dh = np.empty((P, N, H), dtype=np.float32)
        dc = np.empty((P, N, H), dtype=np.float32)
        # The carried recurrences; after step 0 they are h0's and c0's gradients.
        dh_next = np.empty(h0.shape, dtype=np.float32)
        dc_next = np.empty(c0.shape, dtype=np.float32)
        h_prev_all = np.empty((P, T, N, H), dtype=np.float32)
        dhc = np.empty_like(hc)
        dx = np.empty(x.shape, dtype=np.float32)
        dw_ih = np.empty(weight_ih.shape, dtype=np.float32)
        dw_hh = np.empty(weight_hh.shape, dtype=np.float32)
        db_ih = np.empty(bias_ih.shape, dtype=np.float32)
        db_hh = np.empty(bias_hh.shape, dtype=np.float32)
        d_act_g = d_act[..., 2 * H:3 * H]
        dh_next3, dc_next3 = dh_next.reshape(P, N, H), dc_next.reshape(P, N, H)
        d_steps = [(d_gates[t], *gate_views(d_gates[t]), d_act[t], d_tanh_c[t],
                    cs[:, t - 1] if t else None) for t in range(T)]

    def backward(grad: np.ndarray) -> None:
        dout, dc_last = grad.reshape(2, P, T, N, H)
        w_hh = weight_hh.data.reshape(P, G, H)
        np.subtract(1.0, acts, out=d_act)
        np.multiply(d_act, acts, out=d_act)
        np.multiply(acts[..., 2 * H:3 * H], acts[..., 2 * H:3 * H], out=d_act_g)
        np.subtract(1.0, d_act_g, out=d_act_g)
        np.multiply(tanh_c, tanh_c, out=d_tanh_c)
        np.subtract(1.0, d_tanh_c, out=d_tanh_c)
        dh_next3.fill(0.0)
        np.copyto(dc_next3, dc_last[:, T - 1])
        for t in range(T - 1, -1, -1):
            _, _, i, f, g, o, _, _, tc = steps[t]
            dg_t, d_i, d_f, d_g, d_o, dact_t, dtc_t, c_prev = d_steps[t]
            if c_prev is None:
                c_prev = c0.data.reshape(P, N, H)
            np.add(dout[:, t], dh_next3, out=dh)
            _flush_below_floor(dh, small, small_mask)
            np.multiply(dh, tc, out=d_o)
            np.multiply(dh, o, out=dc)
            np.multiply(dc, dtc_t, out=dc)
            np.add(dc, dc_next3, out=dc)
            _flush_below_floor(dc, small, small_mask)
            np.multiply(dc, g, out=d_i)
            np.multiply(dc, c_prev, out=d_f)
            np.multiply(dc, i, out=d_g)
            np.multiply(dc, f, out=dc_next3)
            np.multiply(dg_t, dact_t, out=dg_t)
            _flush_below_floor(dg_t, scratch, mask)
            if t or h0.requires_grad:
                np.matmul(dg_t, w_hh, out=dh_next3)
        # ``d_act`` is dead now: its memory takes dgates replica-major,
        # (P, T·N, 4H), for the window GEMMs.
        dg3 = d_act.reshape(P, TN, G)
        np.copyto(dg3.reshape(P, T, N, G), d_gates.transpose(1, 0, 2, 3))
        if x.requires_grad:
            np.matmul(dg3, weight_ih.data.reshape(P, G, D), out=dx.reshape(P, TN, D))
            x._accumulate(dx)
        if weight_ih.requires_grad:
            np.matmul(dg3.transpose(0, 2, 1), x.data.reshape(P, TN, D),
                      out=dw_ih.reshape(P, G, D))
            weight_ih._accumulate(dw_ih)
        if weight_hh.requires_grad:
            h_prev_all[:, 0] = h0.data.reshape(P, N, H)
            h_prev_all[:, 1:] = hs[:, :-1]
            np.matmul(dg3.transpose(0, 2, 1), h_prev_all.reshape(P, TN, H),
                      out=dw_hh.reshape(P, G, H))
            weight_hh._accumulate(dw_hh)
        np.sum(dg3, axis=1, out=db_ih.reshape(P, G))
        np.copyto(db_hh, db_ih)
        for param, d_param in ((bias_ih, db_ih), (bias_hh, db_hh), (h0, dh_next), (c0, dc_next)):
            if param.requires_grad:
                param._accumulate(d_param)

    forward()
    node = Tensor._make(hc, parents, "lstm", backward, forward)
    if runs_backward:
        node.pin_grad(dhc)       # the output views scatter their gradients here
    last = (Ellipsis, T - 1, slice(None), slice(None))
    return node[0], node[(0,) + last], node[(1,) + last]


# ---------------------------------------------------------------------- #
# dense / softmax / losses
# ---------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ W^T + b`` with ``weight`` of shape (out, in)."""
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    # The max-shift constant is a detached Tensor the tape cannot refresh.
    invalidate_active_tape("softmax max-shift constant")
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    invalidate_active_tape("log_softmax max-shift constant")
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,):
    :func:`cross_entropy_batched` at P = 1, a scalar."""
    return cross_entropy_batched(_one(logits), targets).reshape(())


def cross_entropy_batched(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-replica mean cross-entropy over stacked ``(P, N, C)`` logits.

    Returns the ``(P,)`` vector of replica losses; calling ``backward`` with a
    gradient of ones reproduces, slice by slice, exactly the arithmetic of
    each replica alone (same shifted softmax, same contiguous-axis mean, same
    ``(softmax - onehot)/N`` gradient), so the batched loss is bit-identical
    to the per-replica loop.
    """
    src = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    p, n, c = logits.shape
    targets = src.astype(np.int64).reshape(p, -1)
    if targets.shape[1] != n:
        raise ValueError(f"targets shape {targets.shape} does not match batch ({p}, {n})")

    shifted = logits.data - logits.data.max(axis=2, keepdims=True)
    # Deeply negative shifted logits (< ~-87) exponentiate into float32
    # subnormals, where x86 kernels run 10-100x slower; those terms cannot
    # move the float32 logsumexp (the max term is 1.0), so flush them.
    exp_shifted = np.exp(shifted)
    exp_shifted *= exp_shifted >= np.finfo(exp_shifted.dtype).tiny
    logsumexp = np.log(exp_shifted.sum(axis=2, keepdims=True))
    log_probs = shifted - logsumexp
    replica_index = np.arange(p)[:, None]
    batch_index = np.arange(n)[None, :]
    loss_value = np.asarray(-log_probs[replica_index, batch_index, targets].mean(axis=1),
                            dtype=np.float32)

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        probs = np.exp(log_probs)
        # Same flush as the forward: a probability below ~1.2e-38 carries no
        # gradient signal but poisons every downstream kernel's speed.
        probs *= probs >= np.finfo(probs.dtype).tiny
        probs[replica_index, batch_index, targets] -= 1.0
        logits._accumulate(grad.reshape(p, 1, 1) * probs / n)

    if active_tape() is None:
        return Tensor._make(loss_value, (logits,), "cross_entropy_batched", backward)
    # Replay refreshes the captured int target buffer from the caller's array
    # (``src``): the batched executors mutate their target buffer in place
    # each iteration, so the recorded reference stays live.
    exp_ws = np.empty_like(shifted)

    def replay() -> None:
        np.copyto(targets, src.reshape(p, -1), casting="unsafe")
        np.subtract(logits.data, logits.data.max(axis=2, keepdims=True), out=shifted)
        np.exp(shifted, out=exp_ws)
        np.multiply(exp_ws, exp_ws >= np.finfo(exp_ws.dtype).tiny, out=exp_ws)
        exp_ws.sum(axis=2, keepdims=True, out=logsumexp)
        np.log(logsumexp, out=logsumexp)
        np.subtract(shifted, logsumexp, out=log_probs)
        np.mean(log_probs[replica_index, batch_index, targets], axis=1, out=loss_value)
        np.negative(loss_value, out=loss_value)

    return Tensor._make(loss_value, (logits,), "cross_entropy_batched", backward, replay)


def lm_head(h: Tensor, weight: Tensor, bias: Tensor, targets: np.ndarray) -> Tensor:
    """A language model's decoder and loss as one node, ``P`` replicas at once.

    One replica: ``h`` is ``(M, H)`` hidden states, ``weight`` the ``(V, H)``
    decoder, ``bias`` ``(V,)`` and ``targets`` ``(M,)`` token ids; the result
    is the scalar mean cross-entropy.  Stacked: every operand gains a leading
    replica axis ``P`` and the result is the ``(P,)`` vector of replica
    losses.  Forward, on one ``(P, M, V)`` logits workspace::

        logits = h·Wᵀ + b      s = logits − max(logits)      lse = log Σ exp(s)
        loss = −mean(s[target] − lse)

    Backward, with ``g`` the incoming loss gradient::

        dl = g·(exp(s − lse) − onehot) / M
        db = Σ dl      dh = dl·W      dW = dlᵀ·h

    This is the arithmetic of ``linear`` followed by
    :func:`cross_entropy_batched`, bit for bit: ``h·Wᵀ`` runs on the
    transposed view, the exponentials below float32's smallest normal are
    flushed in both passes, and ``db`` is summed before ``dl`` is flushed
    below ``_FLUSH_FLOOR`` for the two GEMMs (the composite's add node
    reduces before its matmul node flushes).

    Every array the op writes is a workspace it owns, and the eager call and
    the replay rule are one function, so a replay is bit-identical to the
    recorded pass and each replica's slice is bit-identical to the ``P = 1``
    call on that replica alone.  Replay re-reads ``targets`` in place, so a
    caller may refill that array between replays.
    """
    V, H = weight.shape[-2:]
    P = 1 if weight.ndim == 2 else weight.shape[0]
    if h.shape[-1] != H or h.ndim != weight.ndim or bias.shape != weight.shape[:-1]:
        raise ValueError(f"hidden {h.shape}, weight {weight.shape} and bias {bias.shape} "
                         f"do not form one decoder")
    M = h.shape[-2]
    src = np.asarray(targets)
    if src.size != P * M:
        raise ValueError(f"targets shape {src.shape} does not match batch ({P}, {M})")
    tiny = np.finfo(np.float32).tiny
    h3 = h.data.reshape(P, M, H)
    w3 = weight.data.reshape(P, V, H)
    b3 = bias.data.reshape(P, 1, V)
    loss = np.empty(weight.shape[:-2], dtype=np.float32)
    loss_p = loss.reshape(P)
    shifted = np.empty((P, M, V), dtype=np.float32)     # logits, shifted in place
    probs = np.empty((P, M, V), dtype=np.float32)       # exp(shifted); dl in backward
    mask = np.empty((P, M, V), dtype=bool)
    row_max = np.empty((P, M, 1), dtype=np.float32)
    lse = np.empty((P, M, 1), dtype=np.float32)
    picked = np.empty((P, M), dtype=np.float32)
    target_ids = np.empty((P, M), dtype=np.int64)
    # Each (replica, row)'s target as one index into the flat logits.
    row_base = np.arange(P * M, dtype=np.int64).reshape(P, M) * V
    flat_index = np.empty((P, M), dtype=np.int64)
    flat_shifted, flat_probs = shifted.reshape(-1), probs.reshape(-1)
    parents = (h, weight, bias)
    if is_grad_enabled() and any(t.requires_grad for t in parents):
        dh = np.empty(h.shape, dtype=np.float32)
        dw = np.empty(weight.shape, dtype=np.float32)
        db = np.empty(bias.shape, dtype=np.float32)

    def forward() -> None:
        np.copyto(target_ids, src.reshape(P, M), casting="unsafe")
        np.add(row_base, target_ids, out=flat_index)
        np.matmul(h3, w3.transpose(0, 2, 1), out=shifted)
        np.add(shifted, b3, out=shifted)
        np.max(shifted, axis=2, keepdims=True, out=row_max)
        np.subtract(shifted, row_max, out=shifted)
        np.exp(shifted, out=probs)
        np.greater_equal(probs, tiny, out=mask)
        np.multiply(probs, mask, out=probs)
        np.sum(probs, axis=2, keepdims=True, out=lse)
        np.log(lse, out=lse)
        np.take(flat_shifted, flat_index, out=picked)
        np.subtract(picked, lse.reshape(P, M), out=picked)
        np.mean(picked, axis=1, out=loss_p)
        np.negative(loss_p, out=loss_p)

    def backward(grad: np.ndarray) -> None:
        np.subtract(shifted, lse, out=probs)
        np.exp(probs, out=probs)
        np.greater_equal(probs, tiny, out=mask)
        np.multiply(probs, mask, out=probs)
        np.take(flat_probs, flat_index, out=picked)
        np.subtract(picked, 1.0, out=picked)
        np.put(flat_probs, flat_index, picked)
        np.multiply(probs, np.reshape(grad, (P, 1, 1)), out=probs)
        np.divide(probs, M, out=probs)
        if bias.requires_grad:
            np.sum(probs, axis=1, out=db.reshape(P, V))
            bias._accumulate(db)
        _flush_below_floor(probs, shifted, mask)        # ``shifted`` is dead: scratch
        if h.requires_grad:
            np.matmul(probs, w3, out=dh.reshape(P, M, H))
            h._accumulate(dh)
        if weight.requires_grad:
            np.matmul(probs.transpose(0, 2, 1), h3, out=dw.reshape(P, V, H))
            weight._accumulate(dw)

    forward()
    return Tensor._make(loss, parents, "lm_head", backward, forward)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood given precomputed log-probabilities."""
    targets = np.asarray(targets).astype(np.int64).reshape(-1)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


# ---------------------------------------------------------------------- #
# regularization / embedding
# ---------------------------------------------------------------------- #
def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero each element with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    # The mask is freshly sampled every iteration — inherently unreplayable.
    invalidate_active_tape("dropout")
    mask = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)
    return x * Tensor(mask)


def embedding(indices: np.ndarray, weight: Tensor) -> Tensor:
    """Look up rows of ``weight`` (V, D) for integer ``indices`` (...,):
    :func:`embedding_batched` at P = 1."""
    indices = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    out = embedding_batched(indices[None], _one(weight))
    return out.reshape(*out.shape[1:])


def embedding_batched(indices: np.ndarray, weight: Tensor) -> Tensor:
    """Per-replica row lookup into stacked ``(P, V, D)`` embedding tables.

    ``indices`` carries the replica axis first, ``(P, ...)``; replica ``p``
    looks its tokens up in table ``weight[p]``.  The scatter-add backward
    touches disjoint table slabs per replica in the same visiting order as a
    lookup of one replica, so gradients are bit-identical to the per-replica
    loop.
    """
    src = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    indices = src.astype(np.int64)
    p, _, d = weight.shape
    if indices.shape[0] != p:
        raise ValueError(f"indices lead with {indices.shape[0]} replicas, table has {p}")
    replica_index = np.arange(p).reshape((p,) + (1,) * (indices.ndim - 1))
    out = weight.data[replica_index, indices]

    def backward(grad: np.ndarray) -> None:
        if not weight.requires_grad:
            return
        weight._accumulate_at(
            (np.broadcast_to(replica_index, indices.shape).reshape(-1),
             indices.reshape(-1)),
            grad.reshape(-1, d), False)

    if active_tape() is None:
        return Tensor._make(out, (weight,), "embedding_batched", backward)

    def replay() -> None:
        # Refresh the captured int token buffer from the caller's array, then
        # regather rows into the recorded output buffer.
        np.copyto(indices, src, casting="unsafe")
        out[...] = weight.data[replica_index, indices]

    return Tensor._make(out, (weight,), "embedding_batched", backward, replay)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Dense one-hot encoding (plain NumPy; no gradient)."""
    indices = np.asarray(indices).astype(np.int64).reshape(-1)
    out = np.zeros((indices.shape[0], num_classes), dtype=np.float32)
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out
