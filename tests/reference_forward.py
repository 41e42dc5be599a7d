"""The per-replica forward bodies the stacked ``forward_batched`` pass is
tested against.

Every layer and model in ``repro.nn`` / ``repro.models`` has one forward
body, ``forward_batched`` over a stacked replica batch; the per-replica call
``module(*inputs)`` is its P = 1 case, and ``F.conv2d`` / ``F.max_pool2d`` /
``F.cross_entropy`` / ``F.embedding`` are one-call P = 1 wrappers of their
``*_batched`` ops.  This module keeps the independent arithmetic they
replaced:

* the four per-replica op bodies, verbatim;
* :func:`reference_forward`, which walks a module tree with each class's
  former per-replica ``forward`` body (submodule calls routed back through
  :func:`reference_forward`, the four ops pointed at the bodies here).

``tests/reference_trainer.py`` runs them end to end, and the
"stacked ≡ per-replica" pins compare against them bit for bit.
"""

from typing import Optional

import numpy as np

from repro import nn
from repro.models import FNN3, LSTMLanguageModel, ResNet, VGG16
from repro.models.resnet import BasicBlock
from repro.nn.normalization import _BatchNormBase
from repro.tensor import Tensor, functional as F
from repro.tensor.functional import _gather_patches, _scatter_patches


# ---------------------------------------------------------------------- #
# the four per-replica op bodies
# ---------------------------------------------------------------------- #
def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, *,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution on an NCHW tensor.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, K, K)``.
    bias:
        Optional per-channel bias of shape ``(C_out,)``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} do not match weight channels {c_in_w}")
    if kh != kw:
        raise ValueError("only square kernels are supported")
    kernel = kh

    patches = _gather_patches(x.data[None], kernel, stride, padding)
    out_h, out_w = patches.shape[4:6]
    cols = patches.reshape(c_in * kernel * kernel, -1)     # (C*K*K, OH*OW*N)
    w_mat = weight.data.reshape(c_out, -1)
    out = w_mat @ cols                                     # (C_out, OH*OW*N)
    out = out.reshape(c_out, out_h * out_w, n).transpose(2, 0, 1).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, c_out, out_h * out_w).transpose(1, 2, 0).reshape(c_out, -1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            weight._accumulate((grad_mat @ cols.T).reshape(weight.shape))
        if x.requires_grad:
            dcols = w_mat.T @ grad_mat
            x._accumulate(_scatter_patches(dcols.reshape(patches.shape), (1, *x.shape),
                                           kernel, stride, padding)[0])

    return Tensor._make(out, parents, "conv2d", backward)


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows."""
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1

    # View input as (N, C, OH, K, OW, K) windows when stride == kernel and the
    # spatial size divides exactly; otherwise fall back to im2col.
    if stride == kernel and h % kernel == 0 and w % kernel == 0:
        reshaped = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
        out = reshaped.max(axis=(3, 5))
        argmask = (reshaped == out[:, :, :, None, :, None])
        # Break ties: keep only the first max in each window.  Group the two
        # kernel axes together (window-major layout) before flattening them.
        window_major = argmask.transpose(0, 1, 2, 4, 3, 5)        # (N,C,OH,OW,K,K)
        flat = window_major.reshape(n, c, out_h, out_w, kernel * kernel)
        first = np.zeros_like(flat)
        idx = flat.argmax(axis=-1)
        np.put_along_axis(first, idx[..., None], 1, axis=-1)
        mask = (first.reshape(n, c, out_h, out_w, kernel, kernel)
                     .transpose(0, 1, 2, 4, 3, 5))                # back to (N,C,OH,K,OW,K)

        def backward(grad: np.ndarray) -> None:
            if not x.requires_grad:
                return
            g = grad[:, :, :, None, :, None] * mask
            x._accumulate(g.reshape(n, c, h, w))

        return Tensor._make(out, (x,), "max_pool2d", backward)

    patches = _gather_patches(x.data.reshape(1, n * c, 1, h, w), kernel, stride, 0)
    oh, ow = patches.shape[4:6]
    cols = patches.reshape(kernel * kernel, -1)
    arg = cols.argmax(axis=0)
    out = cols[arg, np.arange(cols.shape[1])]
    out = out.reshape(oh * ow, n * c).T.reshape(n, c, oh, ow)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dcols = np.zeros_like(cols)
        gflat = grad.reshape(n * c, oh * ow).T.reshape(-1)
        dcols[arg, np.arange(cols.shape[1])] = gflat
        dx = _scatter_patches(dcols.reshape(patches.shape), (1, n * c, 1, h, w),
                              kernel, stride, 0)
        x._accumulate(dx.reshape(n, c, h, w))

    return Tensor._make(out, (x,), "max_pool2d", backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    The gradient is the standard ``softmax - onehot`` divided by batch size,
    wired directly for efficiency and numerical stability.
    """
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    targets = targets.astype(np.int64).reshape(-1)
    n, c = logits.shape
    if targets.shape[0] != n:
        raise ValueError(f"targets length {targets.shape[0]} does not match batch {n}")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    # Deeply negative shifted logits (< ~-87) exponentiate into float32
    # subnormals, where x86 kernels run 10-100x slower; those terms cannot
    # move the float32 logsumexp (the max term is 1.0), so flush them.
    exp_shifted = np.exp(shifted)
    exp_shifted *= exp_shifted >= np.finfo(exp_shifted.dtype).tiny
    logsumexp = np.log(exp_shifted.sum(axis=1, keepdims=True))
    log_probs = shifted - logsumexp
    loss_value = -log_probs[np.arange(n), targets].mean()

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        probs = np.exp(log_probs)
        # Same flush as the forward: a probability below ~1.2e-38 carries no
        # gradient signal but poisons every downstream kernel's speed.
        probs *= probs >= np.finfo(probs.dtype).tiny
        probs[np.arange(n), targets] -= 1.0
        logits._accumulate(grad * probs / n)

    return Tensor._make(np.asarray(loss_value, dtype=np.float32), (logits,), "cross_entropy", backward)


def embedding(indices: np.ndarray, weight: Tensor) -> Tensor:
    """Look up rows of ``weight`` (V, D) for integer ``indices`` (...,)."""
    indices = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    indices = indices.astype(np.int64)
    out = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        if not weight.requires_grad:
            return
        weight._accumulate_at(indices.reshape(-1),
                              grad.reshape(-1, weight.shape[1]), False)

    return Tensor._make(out, (weight,), "embedding", backward)


# ---------------------------------------------------------------------- #
# the per-module forward bodies
# ---------------------------------------------------------------------- #
def _sequential(module, x):
    for member in module:
        x = reference_forward(member, x)
    return x


def _batch_norm(module, x):
    if not module.training:
        stats = (module._buffers["running_mean"], module._buffers["running_var"])
        return F.batch_norm(x, module.weight, module.bias, module.eps, stats)[0]
    out, mean, var = F.batch_norm(x, module.weight, module.bias, module.eps)
    module._update_running(mean[0], var[0])
    return out


def _lstm_window(cell, x, state):
    return F.lstm(x, cell.weight_ih, cell.weight_hh, cell.bias_ih, cell.bias_hh, *state)


def _lstm_cell(module, x, state):
    _, h, c = _lstm_window(module, x.reshape(1, *x.shape), state)
    return h, c


def _lstm(module, x, state=None):
    if state is None:
        state = [cell.initial_state(x.shape[1]) for cell in module.cells]
    if len(state) != module.num_layers:
        raise ValueError(f"expected {module.num_layers} layer states, got {len(state)}")
    new_state = []
    for cell, layer_state in zip(module.cells, state):
        x, h, c = _lstm_window(cell, x, layer_state)
        new_state.append((h, c))
    return x, new_state


def _fnn3(module, x):
    if x.ndim > 2:
        x = x.reshape(x.shape[0], -1)
    return reference_forward(module.net, x)


def _basic_block(module, x):
    out = reference_forward(module.bn1, reference_forward(module.conv1, x)).relu()
    out = reference_forward(module.bn2, reference_forward(module.conv2, out))
    identity = x
    if module.shortcut is not None:
        identity = reference_forward(module.shortcut_bn, reference_forward(module.shortcut, x))
    return (out + identity).relu()


def _resnet(module, x):
    out = reference_forward(module.bn1, reference_forward(module.conv1, x)).relu()
    out = reference_forward(module.stage1, out)
    out = reference_forward(module.stage2, out)
    out = reference_forward(module.stage3, out)
    out = reference_forward(module.pool, out)
    return reference_forward(module.fc, out)


def _vgg16(module, x):
    out = reference_forward(module.features, x)
    out = reference_forward(module.pool, out)
    return reference_forward(module.classifier, out)


def _lstm_language_model(module, tokens, state=None):
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError("tokens must have shape (seq_len, batch)")
    embedded = reference_forward(module.embedding, tokens)              # (T, N, D)
    output, state = reference_forward(module.lstm, embedded, state)     # (T, N, H)
    flat = output.reshape(-1, module.hidden_size)                        # (T*N, H)
    logits = reference_forward(module.decoder, flat)                     # (T*N, V)
    return logits, state


_BODIES = {
    nn.Sequential: _sequential,
    nn.Linear: lambda m, x: F.linear(x, m.weight, m.bias),
    nn.Conv2d: lambda m, x: conv2d(x, m.weight, m.bias, stride=m.stride, padding=m.padding),
    nn.MaxPool2d: lambda m, x: max_pool2d(x, m.kernel_size, m.stride),
    nn.GlobalAvgPool2d: lambda m, x: F.global_avg_pool2d(x),
    nn.ReLU: lambda m, x: x.relu(),
    nn.Tanh: lambda m, x: x.tanh(),
    nn.Sigmoid: lambda m, x: x.sigmoid(),
    nn.Flatten: lambda m, x: x.reshape(x.shape[0], -1),
    nn.Embedding: lambda m, indices: embedding(indices, m.weight),
    _BatchNormBase: _batch_norm,
    nn.LSTMCell: _lstm_cell,
    nn.LSTM: _lstm,
    FNN3: _fnn3,
    BasicBlock: _basic_block,
    ResNet: _resnet,
    VGG16: _vgg16,
    LSTMLanguageModel: _lstm_language_model,
}


def reference_forward(module, *inputs):
    """``module``'s former per-replica forward on ``inputs``.

    Classes without a former body here (``Dropout``, ``AvgPool2d``, the
    losses, custom modules) run their own ``forward``.
    """
    for cls in type(module).__mro__:
        body = _BODIES.get(cls)
        if body is not None:
            return body(module, *inputs)
    return module(*inputs)
