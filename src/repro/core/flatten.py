"""Flattening model gradients/parameters into the single vector the paper's
algorithms operate on.

Distributed SGD treats the model as one vector of ``n`` parameters (Eq. 1 of
the paper); compressors likewise operate on the concatenated gradient.  These
helpers convert between the per-layer parameter tensors of a
:class:`repro.nn.Module` and that flat view, preserving registration order so
the mapping is stable across workers and iterations.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.module import Module


def flatten_gradients(model: Module, missing_as_zero: bool = True) -> np.ndarray:
    """Concatenate all parameter gradients into one float32 vector.

    Parameters without a gradient contribute zeros when ``missing_as_zero``
    (e.g. layers unused in a particular forward pass); otherwise a missing
    gradient raises.
    """
    pieces: List[np.ndarray] = []
    for name, param in model.named_parameters():
        if param.grad is None:
            if not missing_as_zero:
                raise ValueError(f"parameter {name!r} has no gradient")
            pieces.append(np.zeros(param.size, dtype=np.float32))
        else:
            pieces.append(np.asarray(param.grad, dtype=np.float32).reshape(-1))
    if not pieces:
        raise ValueError("model has no parameters")
    return np.concatenate(pieces)


def flatten_parameters(model: Module) -> np.ndarray:
    """Concatenate all parameter values into one float32 vector."""
    return np.concatenate([p.data.reshape(-1).astype(np.float32) for p in model.parameters()])


def unflatten_into_gradients(model: Module, flat: np.ndarray) -> None:
    """Write a flat gradient vector back into ``param.grad`` slots."""
    flat = np.asarray(flat, dtype=np.float32)
    offset = 0
    for param in model.parameters():
        size = param.size
        segment = flat[offset:offset + size]
        if segment.size != size:
            raise ValueError("flat gradient is shorter than the model's parameter count")
        param.grad = segment.reshape(param.shape).copy()
        offset += size
    if offset != flat.size:
        raise ValueError(f"flat gradient has {flat.size} entries but the model has {offset}")


def unflatten_into_parameters(model: Module, flat: np.ndarray) -> None:
    """Write a flat parameter vector back into the model weights."""
    flat = np.asarray(flat, dtype=np.float32)
    offset = 0
    for param in model.parameters():
        size = param.size
        segment = flat[offset:offset + size]
        if segment.size != size:
            raise ValueError("flat vector is shorter than the model's parameter count")
        param.data[...] = segment.reshape(param.shape)
        offset += size
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries but the model has {offset}")
