"""Stochastic gradient descent with momentum and weight decay.

The distributed trainer updates the model with whatever gradient the
compression/synchronization pipeline produced (Algorithm 1 line 7 in the
paper); the optimizer itself is identical to single-node SGD.

Two forms of one update rule:

* :meth:`SGD.step` — the classic per-parameter loop: the single-model API and
  the oracle the fused kernel is tested against.
* :func:`sgd_flat_update` — the fused kernel the trainer calls on its stacked
  ``(P, n)`` parameter and momentum matrices (see :mod:`repro.core.flat_buffer`):
  a handful of whole-buffer axpy operations update every replica at once.  The
  trainer's one optimizer object is the hyperparameter / learning-rate record.

The looped step keys momentum buffers by *parameter index*, not ``id(p)``:
CPython reuses object ids after garbage collection, so an id-keyed dictionary
can silently attach a dead parameter's momentum to a new tensor.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np


#: Elements per block of the cache-blocked flat update: 64 K float32 = 256 KiB
#: per operand, so a block's parameter, gradient, velocity and scratch slices
#: stay L2-resident across the kernel's 5-7 elementwise passes instead of
#: each pass re-streaming the whole (P, n) matrix from memory.
STEP_BLOCK_ELEMENTS = 1 << 16


def row_blocks(P: int, n: int) -> List[slice]:
    """The row blocks of a ``(P, n)`` matrix the blocked kernels walk: whole
    rows while ``rows · n ≤ STEP_BLOCK_ELEMENTS``, one row per block above
    that (where :func:`sgd_flat_update` also cuts the row into columns)."""
    rows = max(1, STEP_BLOCK_ELEMENTS // max(n, 1))
    return [slice(start, min(start + rows, P)) for start in range(0, P, rows)]


def _sgd_update_block(params: np.ndarray, grads: np.ndarray, lr: np.float32,
                      momentum: np.float32, weight_decay: np.float32,
                      nesterov: bool, velocity: Optional[np.ndarray],
                      scratch: np.ndarray) -> None:
    """The elementwise SGD update on one block (all operands one shape).

    ``grads`` is only read: without weight decay it feeds the momentum and
    learning-rate passes directly instead of being copied into ``scratch``.
    """
    if weight_decay:
        np.multiply(params, weight_decay, out=scratch)
        scratch += grads
        grads = scratch
    if momentum:
        velocity *= momentum
        velocity += grads
        if nesterov:
            np.add(grads, momentum * velocity, out=scratch)
            grads = scratch
        else:
            grads = velocity
    np.multiply(grads, lr, out=scratch)
    params -= scratch


def sgd_flat_update(params: np.ndarray, grads: np.ndarray, lr: float,
                    momentum: float = 0.0, weight_decay: float = 0.0,
                    nesterov: bool = False, velocity: Optional[np.ndarray] = None,
                    scratch: Optional[np.ndarray] = None) -> None:
    """Fused SGD update on flat storage (shape ``(n,)`` or ``(P, n)``).

    Elementwise identical to the per-parameter loop in :meth:`SGD.step`:
    ``g ← grad + wd·w``, ``v ← µ·v + g``, ``w ← w − lr·(g + µ·v | v)``.
    ``velocity`` is required when ``momentum > 0`` and is updated in place.
    ``scratch`` (same shape) avoids reallocating the work buffer every call.

    C-contiguous storage is walked in blocks of :data:`STEP_BLOCK_ELEMENTS`
    (whole rows when they fit, column blocks of a row otherwise) with a
    block-sized corner of ``scratch``, so every pass over a block hits cache;
    the update is elementwise, so the blocked walk is bit-identical to the
    single whole-buffer pass that non-contiguous storage still takes.
    ``grads`` may be any view of the parameters' shape (e.g. the read-only
    broadcast row an Allgather reconstruction returns).
    """
    if not momentum:
        velocity = None
    elif velocity is None:
        raise ValueError("momentum > 0 requires a velocity buffer")
    lr, momentum, weight_decay = np.float32(lr), np.float32(momentum), np.float32(weight_decay)
    # One pass over the whole buffer: it is a single block anyway, or its
    # storage cannot be cut into contiguous blocks.
    if params.size <= STEP_BLOCK_ELEMENTS or not (
            params.flags.c_contiguous
            and (velocity is None or velocity.flags.c_contiguous)):
        if scratch is None:
            scratch = np.empty_like(params)
        _sgd_update_block(params, grads, lr, momentum, weight_decay, nesterov,
                          velocity, scratch)
        return

    n = params.shape[-1]
    grads = np.broadcast_to(grads, params.shape).reshape(-1, n)
    params = params.reshape(-1, n)
    if velocity is not None:
        velocity = velocity.reshape(-1, n)
    blocks = row_blocks(params.shape[0], n)
    rows, cols = blocks[0].stop - blocks[0].start, min(n, STEP_BLOCK_ELEMENTS)
    if scratch is None or not scratch.flags.c_contiguous:
        scratch = np.empty(rows * cols, dtype=params.dtype)
    scratch = scratch.reshape(-1)[:rows * cols].reshape(rows, cols)
    for row_block in blocks:
        for j in range(0, n, cols):
            block = (row_block, slice(j, j + cols))
            block_params = params[block]
            _sgd_update_block(
                block_params, grads[block], lr, momentum, weight_decay, nesterov,
                None if velocity is None else velocity[block],
                scratch[:block_params.shape[0], :block_params.shape[1]])


class Optimizer:
    """Base optimizer: holds parameters, a mutable learning rate and the
    looped step's momentum buffers."""

    def __init__(self, params: Iterable, lr: float):
        self.params: List = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        #: Momentum buffers of the looped :meth:`step`, keyed by parameter
        #: index and allocated on first use.
        self._velocity: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        """Set the current learning rate (used by LR schedules)."""
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)

    def _momentum_buffer(self, index: int, param) -> np.ndarray:
        buf = self._velocity.get(index)
        if buf is None:
            buf = np.zeros_like(param.data)
            self._velocity[index] = buf
        return buf


class SGD(Optimizer):
    """SGD with optional momentum, Nesterov acceleration and weight decay.

    Parameters
    ----------
    params:
        Model parameters to update.
    lr:
        Learning rate.
    momentum:
        Momentum coefficient (0 disables momentum).
    weight_decay:
        L2 penalty added to the gradient before the momentum update.
    nesterov:
        Use Nesterov momentum.
    """

    def __init__(self, params: Iterable, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0, nesterov: bool = False):
        super().__init__(params, lr)
        if momentum < 0:
            raise ValueError("momentum must be non-negative")
        if nesterov and momentum == 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = bool(nesterov)

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient."""
        for index, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                buf = self._momentum_buffer(index, p)
                buf *= self.momentum
                buf += grad
                grad = grad + self.momentum * buf if self.nesterov else buf
            p.data -= self.lr * grad
