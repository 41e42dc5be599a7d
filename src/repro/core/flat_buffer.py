"""Zero-copy flat gradient/parameter buffers for the fused training pipeline.

The paper's algorithms — and every compressor — operate on the model as one
flat vector of ``n`` parameters.  The seed implementation materialized that
view each iteration with ``np.concatenate`` (and copied it back per
parameter), which costs a Python loop plus two O(n) copies per replica per
iteration.  This module removes those copies structurally:

* :class:`FlatLayout` records the (offset, size, shape) of every parameter in
  registration order — the single source of truth for the flat ordering used
  by ``core.flatten``, the compressors and the optimizers.
* :class:`ModelFlatBuffers` owns one contiguous float32 vector for the
  parameters and one for the gradients of a model.  Parameter data is
  *adopted*: each ``Parameter.data`` is re-pointed at a strided view of the
  flat vector, and each ``Parameter.grad`` is *pinned*
  (:meth:`repro.tensor.Tensor.pin_grad`) to a view of the gradient vector, so
  autograd accumulates directly into flat storage.
* :class:`WorldFlatBuffers` stacks the per-replica vectors as rows of one
  ``(P, n)`` matrix, which is exactly the batched-gradient operand the
  ``compress_batch`` kernels and the fused optimizer step consume — the
  sync strategy reads the training gradients with zero copies.

Adoption is transparent to the rest of the stack: ``p.data[...] = v`` writes
(checkpoint load, ``unflatten_into_parameters``) mutate the shared storage in
place, and reads see the live values.  The one rule is that nothing may
re-*bind* ``p.data`` to a new array after adoption; nothing in this codebase
does.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.module import Module, Parameter


class FlatLayout:
    """Offsets/sizes/shapes of a model's parameters in registration order."""

    def __init__(self, names: Sequence[str], shapes: Sequence[Tuple[int, ...]]):
        self.names: List[str] = list(names)
        self.shapes: List[Tuple[int, ...]] = [tuple(s) for s in shapes]
        self.sizes: np.ndarray = np.array([int(np.prod(s)) if s else 1 for s in self.shapes],
                                          dtype=np.int64)
        self.offsets: np.ndarray = np.concatenate([[0], np.cumsum(self.sizes)])
        self.total_size: int = int(self.offsets[-1])

    @classmethod
    def from_model(cls, model: Module) -> "FlatLayout":
        names, shapes = [], []
        for name, param in model.named_parameters():
            names.append(name)
            shapes.append(param.data.shape)
        if not names:
            raise ValueError("model has no parameters")
        return cls(names, shapes)

    def __len__(self) -> int:
        return len(self.names)

    def segments(self) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
        """Yield ``(offset, size, shape)`` per parameter in flat order."""
        for i, shape in enumerate(self.shapes):
            yield int(self.offsets[i]), int(self.sizes[i]), shape

    def matches(self, model: Module) -> bool:
        """Whether the model's parameters have this exact layout."""
        params = [p for _, p in model.named_parameters()]
        return (len(params) == len(self.shapes)
                and all(p.data.shape == s for p, s in zip(params, self.shapes)))


def segment_views(storage: np.ndarray, layout: FlatLayout) -> List[np.ndarray]:
    """Per-parameter shaped views into a flat (or row-of-matrix) vector."""
    views = []
    for offset, size, shape in layout.segments():
        views.append(storage[offset:offset + size].reshape(shape))
    return views


class ModelFlatBuffers:
    """Flat parameter + gradient storage for one model replica.

    Parameters
    ----------
    model:
        The model to adopt.  Its ``Parameter.data`` arrays are copied into the
        flat vector once and re-pointed at views of it; ``Parameter.grad`` is
        pinned so backward passes accumulate into the flat gradient vector.
    param_store / grad_store:
        Optional preallocated float32 vectors of length ``layout.total_size``
        (typically rows of a :class:`WorldFlatBuffers` matrix).  Allocated
        when omitted.
    adopt_values:
        When ``True`` (the default) the model's current parameter values are
        copied into the flat vector before re-pointing.  ``False`` re-points
        without copying — a worker process attaching to parameter storage the
        parent already initialized (e.g. a shared-memory segment) must adopt
        the *storage's* values, not overwrite them with its own.
    """

    def __init__(self, model: Module, layout: Optional[FlatLayout] = None,
                 param_store: Optional[np.ndarray] = None,
                 grad_store: Optional[np.ndarray] = None,
                 adopt_values: bool = True):
        self.model = model
        self.layout = layout if layout is not None else FlatLayout.from_model(model)
        if not self.layout.matches(model):
            raise ValueError("model parameters do not match the provided layout")
        n = self.layout.total_size
        self.params = param_store if param_store is not None else np.empty(n, dtype=np.float32)
        self.grads = grad_store if grad_store is not None else np.zeros(n, dtype=np.float32)
        for store in (self.params, self.grads):
            if store.shape != (n,) or store.dtype != np.float32:
                raise ValueError("flat stores must be float32 vectors of the layout size")

        self.parameters: List[Parameter] = [p for _, p in model.named_parameters()]
        self._grad_views = segment_views(self.grads, self.layout)
        for param, pview, gview in zip(self.parameters,
                                       segment_views(self.params, self.layout),
                                       self._grad_views):
            if adopt_values:
                pview[...] = param.data        # adopt current values
            param.data = pview                 # re-point at flat storage
            param.pin_grad(gview)              # autograd writes into flat storage

    # ------------------------------------------------------------------ #
    def zero_grads(self) -> None:
        """One memset for the whole replica instead of a per-parameter loop."""
        self.grads.fill(0.0)
        for param in self.parameters:
            param.grad = None

    def attach_grads(self) -> None:
        """Point every ``param.grad`` at its pinned flat view.

        Used after code (e.g. the batched replica executor) has written the
        flat gradient storage directly without going through autograd.
        """
        for param, gview in zip(self.parameters, self._grad_views):
            param.grad = gview


class WorldFlatBuffers:
    """Per-world flat storage: replica ``p``'s vectors are rows ``p``.

    The ``(P, n)`` gradient matrix is exactly the stacked operand the batched
    compressor kernels and the fused optimizer step consume, so one training
    iteration moves gradients from backward pass to optimizer update without
    a single flatten/unflatten copy.

    ``param_matrix`` / ``grad_matrix`` optionally supply externally-owned
    float32 ``(P, n)`` storage (e.g. views of a shared-memory segment, so
    parent and worker processes operate on the same physical buffers); they
    are allocated when omitted.  ``adopt_values=False`` re-points the
    replicas at the matrices without copying their current values in — the
    attach-side of a shared world, where the storage already holds the
    initialized parameters.
    """

    def __init__(self, replicas: Sequence[Module], *,
                 param_matrix: Optional[np.ndarray] = None,
                 grad_matrix: Optional[np.ndarray] = None,
                 adopt_values: bool = True):
        if not replicas:
            raise ValueError("need at least one replica")
        self.layout = FlatLayout.from_model(replicas[0])
        P, n = len(replicas), self.layout.total_size
        if param_matrix is None:
            param_matrix = np.empty((P, n), dtype=np.float32)
        if grad_matrix is None:
            grad_matrix = np.zeros((P, n), dtype=np.float32)
        for matrix in (param_matrix, grad_matrix):
            if matrix.shape != (P, n) or matrix.dtype != np.float32:
                raise ValueError(f"world matrices must be float32 of shape "
                                 f"{(P, n)}, got {matrix.dtype} {matrix.shape}")
        self.param_matrix = param_matrix
        self.grad_matrix = grad_matrix
        self.replica_buffers: List[ModelFlatBuffers] = [
            ModelFlatBuffers(model, self.layout,
                             param_store=self.param_matrix[p],
                             grad_store=self.grad_matrix[p],
                             adopt_values=adopt_values)
            for p, model in enumerate(replicas)
        ]

    @property
    def world_size(self) -> int:
        return self.param_matrix.shape[0]

    @property
    def num_parameters(self) -> int:
        return self.param_matrix.shape[1]

    def zero_grads(self) -> None:
        """Zero every replica's gradients with one memset of the matrix."""
        self.grad_matrix.fill(0.0)
        for buffers in self.replica_buffers:
            for param in buffers.parameters:
                param.grad = None

    def row(self, rank: int) -> "WorldFlatBuffers":
        """Rank ``rank`` as a P = 1 world over the same storage.

        Its ``(1, n)`` matrices are views of row ``rank`` and its one replica
        buffer is that rank's own, so an executor built on it reads and writes
        the world's rows in place; nothing is copied or re-adopted.
        """
        view = object.__new__(WorldFlatBuffers)
        view.layout = self.layout
        view.param_matrix = self.param_matrix[rank:rank + 1]
        view.grad_matrix = self.grad_matrix[rank:rank + 1]
        view.replica_buffers = self.replica_buffers[rank:rank + 1]
        return view

    def stacked_param_view(self, index: int) -> np.ndarray:
        """Parameter ``index`` of every replica as one ``(P, *shape)`` view."""
        offset, size, shape = list(self.layout.segments())[index]
        return self.param_matrix[:, offset:offset + size].reshape((self.world_size,) + shape)

    def stacked_grad_view(self, index: int) -> np.ndarray:
        """Gradient ``index`` of every replica as one ``(P, *shape)`` view."""
        offset, size, shape = list(self.layout.segments())[index]
        return self.grad_matrix[:, offset:offset + size].reshape((self.world_size,) + shape)


def adopt_module_buffers(model: Module, views, *, adopt_values: bool = True) -> None:
    """Re-point a model's registered buffers at externally-owned views.

    ``views`` maps dotted buffer names (as yielded by
    :meth:`~repro.nn.module.Module.named_buffers`) to arrays of the same
    shape and dtype — typically slots of a shared-memory segment, so
    BatchNorm's in-place running-stat updates in a worker process become
    visible to the parent (which needs them at evaluation time).  The same
    adoption rule as parameters applies: ``adopt_values=True`` copies the
    model's current buffer values into the views first (the owning side);
    ``False`` adopts the views' values as-is (the attaching side).
    """
    for name, view in views.items():
        parts = name.split(".")
        module = model
        for part in parts[:-1]:
            module = module._modules[part]
        leaf = parts[-1]
        current = module._buffers[leaf]
        if view.shape != current.shape or view.dtype != current.dtype:
            raise ValueError(f"buffer {name!r} expects {current.dtype} "
                             f"{current.shape}, got {view.dtype} {view.shape}")
        if adopt_values:
            view[...] = current
        module._buffers[leaf] = view
        object.__setattr__(module, leaf, view)


class RowSnapshot:
    """Copies of some ranks' arrays, put back after a call that writes
    every rank.

    The fused optimizer kernel and the stacked executors update all ``P``
    rows at once; a rank that must not move — a down rank, a gradient still
    pending, module buffers ahead of their event — is copied first and put
    back after.  ``arrays_of(rank)`` lists the rank's live arrays (row
    views, module buffers).
    """

    def __init__(self, arrays_of: Callable[[int], Sequence[np.ndarray]],
                 ranks: Iterable[int]):
        self._arrays_of = arrays_of
        self.saved = {rank: [array.copy() for array in arrays_of(rank)]
                      for rank in ranks}

    def restore(self, ranks: Optional[Iterable[int]] = None) -> None:
        """Put ``ranks`` back (default: every saved rank)."""
        for rank in self.saved if ranks is None else ranks:
            for array, saved in zip(self._arrays_of(rank), self.saved[rank]):
                array[...] = saved
