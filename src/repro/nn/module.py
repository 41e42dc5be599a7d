"""Base classes for neural-network modules.

:class:`Module` mirrors the small subset of ``torch.nn.Module`` the paper's
models rely on: registration of parameters and submodules by attribute
assignment, recursive parameter iteration, train/eval mode, ``zero_grad`` and
a flat ``state_dict``.

A layer or model implements one forward body, ``forward_batched(*inputs,
stack)``: every input carries a leading replica axis ``P`` and ``stack`` (a
:class:`~repro.core.batched_replicas.ReplicaStack`) resolves each parameter to
its stacked ``(P, *shape)`` tensor.  The per-replica call ``module(*inputs)``
is that body's ``P = 1`` case (:meth:`Module.forward`).  A forward-only layer
such as ``Dropout`` defines ``forward`` instead; it runs per replica inside a
``Sequential`` but has no batched executor.

The distributed trainer treats a model as "the ordered list of its
parameters"; gradient compression operates on the concatenation of their
gradients (see :mod:`repro.core.flatten`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a learnable parameter of a module."""

    def __init__(self, data, requires_grad: bool = True):
        if isinstance(data, Tensor):
            data = data.data
        super().__init__(data, requires_grad=requires_grad)


class _StackOfOne:
    """The ``P = 1`` stack a per-replica call runs ``forward_batched`` over:
    one cached ``(1, *shape)`` reshape node per parameter, so backward lands
    in ``param.grad`` (and in a pinned gradient view)."""

    world_size = 1

    def __init__(self) -> None:
        self._tensors: Dict[int, Tensor] = {}

    def tensor(self, param: Parameter) -> Tensor:
        stacked = self._tensors.get(id(param))
        if stacked is None:
            stacked = self._tensors[id(param)] = param.reshape(1, *param.shape)
        return stacked

    def siblings(self, module: "Module") -> Tuple["Module", ...]:
        return (module,)


def _replica_axis(value, add: bool):
    """Add (or drop) a leading axis of size 1 on every tensor or array in
    ``value``, walking nested tuples/lists; ``None`` passes through."""
    if isinstance(value, (tuple, list)):
        return type(value)(_replica_axis(item, add) for item in value)
    if isinstance(value, Tensor):
        return value.reshape(1, *value.shape) if add else value.reshape(*value.shape[1:])
    if value is None or not add:
        return value
    return np.asarray(value)[None]


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # ------------------------------------------------------------------ #
    # registration via attribute assignment
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-learnable persistent array (e.g. BatchNorm stats)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def register_parameter(self, name: str, param: Parameter) -> None:
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs in deterministic registration order."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        """All learnable parameters, in registration order."""
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters (the paper's ``n``)."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.grad = None

    def train(self, mode: bool = True) -> "Module":
        """Switch the module (recursively) to training or evaluation mode."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of parameter and buffer names to arrays (copies)."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[f"buffer:{name}"] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict` (shapes must match)."""
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name.startswith("buffer:"):
                continue
            if name not in params:
                raise KeyError(f"unexpected parameter {name!r} in state dict")
            if params[name].data.shape != value.shape:
                raise ValueError(f"shape mismatch for {name!r}: "
                                 f"{params[name].data.shape} vs {value.shape}")
            params[name].data[...] = value
        # Buffers are matched by walking modules in the same order.
        buffer_items = [(n, b) for n, b in self.named_buffers()]
        for name, _ in buffer_items:
            key = f"buffer:{name}"
            if key in state:
                self._assign_buffer(name, state[key])

    def _assign_buffer(self, dotted_name: str, value: np.ndarray) -> None:
        parts = dotted_name.split(".")
        module: Module = self
        for part in parts[:-1]:
            module = module._modules[part]
        module._buffers[parts[-1]][...] = value
        object.__setattr__(module, parts[-1], module._buffers[parts[-1]])

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def forward(self, *inputs):
        """The per-replica pass: ``forward_batched`` over a stack of one.

        Every input gains a leading replica axis of size 1 and every output
        loses it again (:func:`_replica_axis`).
        """
        batched = getattr(self, "forward_batched", None)
        if batched is None:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither forward nor forward_batched")
        outputs = batched(*_replica_axis(inputs, add=True), stack=_StackOfOne())
        return _replica_axis(outputs, add=False)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        children = ", ".join(self._modules.keys())
        return f"{type(self).__name__}({children})"
