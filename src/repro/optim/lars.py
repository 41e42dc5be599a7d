"""Layer-wise Adaptive Rate Scaling (LARS).

The paper's VGG-16 large-batch configuration uses LARS (You et al., 2017) on
top of SGD: each layer's update is rescaled by the trust ratio
``||w|| / (||g|| + wd * ||w||)`` so that layers with small gradients relative
to their weights still make progress under large batch sizes.

Like :class:`repro.optim.sgd.SGD`, LARS has a fused flat kernel,
:func:`lars_flat_update`: with the parameters in one contiguous vector, the
per-layer norms are segment reductions (``np.add.reduceat`` over the flat
layout) and the trust-scaled update is a handful of whole-buffer operations —
no per-parameter Python loop — finishing in :func:`sgd_flat_update`'s blocked
momentum / learning-rate / parameter-update tail.  The looped
:meth:`LARS.step` is the single-model API and the kernel's test oracle.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.optim.sgd import Optimizer, sgd_flat_update


def lars_flat_update(params: np.ndarray, grads: np.ndarray, offsets: np.ndarray,
                     sizes: np.ndarray, lr: float, momentum: float = 0.0,
                     weight_decay: float = 0.0, trust_coefficient: float = 0.001,
                     eps: float = 1e-8, velocity: Optional[np.ndarray] = None,
                     scratch: Optional[np.ndarray] = None) -> None:
    """Fused LARS update on flat storage (shape ``(n,)`` or ``(P, n)``).

    ``offsets``/``sizes`` describe the per-layer segments of the flat vector
    (:class:`repro.core.flat_buffer.FlatLayout`); layer norms are computed
    with one ``reduceat`` per operand instead of a Python loop over layers.
    """
    if scratch is None:
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

    # The trust ratios need whole-layer norms, so everything above runs on the
    # full buffer; what is left — momentum, learning rate, parameter update of
    # the trust-scaled gradient — is exactly plain SGD's elementwise tail and
    # takes its cache-blocked walk.
    sgd_flat_update(params, scratch, lr, momentum, velocity=velocity)


class LARS(Optimizer):
    """SGD with momentum and layer-wise adaptive rate scaling.

    Parameters
    ----------
    params:
        Model parameters.
    lr:
        Base learning rate.
    momentum:
        Momentum coefficient.
    weight_decay:
        L2 penalty.
    trust_coefficient:
        The η coefficient from the LARS paper (typically 0.001).
    eps:
        Numerical floor for the denominator of the trust ratio.
    """

    def __init__(self, params: Iterable, lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.0, trust_coefficient: float = 0.001,
                 eps: float = 1e-8):
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.trust_coefficient = float(trust_coefficient)
        self.eps = float(eps)

    def step(self) -> None:
        for index, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data

            weight_norm = float(np.linalg.norm(p.data))
            grad_norm = float(np.linalg.norm(grad))
            if weight_norm > 0 and grad_norm > 0:
                trust_ratio = self.trust_coefficient * weight_norm / (grad_norm + self.eps)
            else:
                trust_ratio = 1.0

            scaled = trust_ratio * grad
            if self.momentum:
                buf = self._momentum_buffer(index, p)
                buf *= self.momentum
                buf += scaled
                scaled = buf
            p.data -= self.lr * scaled
