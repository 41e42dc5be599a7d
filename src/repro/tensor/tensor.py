"""Core :class:`Tensor` type and reverse-mode automatic differentiation.

The implementation follows the classic "define-by-run" pattern: every
operation returns a new :class:`Tensor` holding references to its inputs and a
closure that knows how to propagate the output gradient back to them.
Calling :meth:`Tensor.backward` topologically sorts the graph and runs the
closures in reverse order.

Broadcasting is supported for the elementwise operations; gradients flowing
into a broadcast operand are reduced (summed) over the broadcast axes so the
gradient always has the same shape as the operand (``_unbroadcast``).

Tape recording (see :mod:`repro.tensor.tape`): when a tape is installed via
:func:`set_active_tape`, every op additionally builds a *replay thunk* — a
closure defined in the same scope as its backward closure, so the two share
cells.  Re-running the thunk refreshes the op's output array (and any cached
scratch arrays such as the ReLU mask) **in place**, which keeps every
reference captured by the backward closures valid.  Ops whose output is a
NumPy view of a parent record a view marker instead (nothing to do on
replay); ops with data-dependent control flow that a replay cannot reproduce
(comparisons, ``where``) invalidate the tape so the executor falls back to
eager re-execution.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


# ---------------------------------------------------------------------- #
# tape recording plumbing (the Tape class itself lives in repro.tensor.tape)
# ---------------------------------------------------------------------- #
#: Sentinel: the op provides no replay rule — recording it invalidates the
#: tape and the executor keeps re-running the graph eagerly.
_NO_REPLAY = object()
#: Sentinel: the op's output is a NumPy view of its parent's data, so
#: refreshing the parent refreshes the output for free.
_VIEW_REPLAY = object()

#: The tape currently recording, or ``None``.  A module-level global keeps the
#: eager fast path at a single load + identity test per op.
_ACTIVE_TAPE = None


def set_active_tape(tape):
    """Install ``tape`` as the recording target; returns the previous tape."""
    global _ACTIVE_TAPE
    previous = _ACTIVE_TAPE
    _ACTIVE_TAPE = tape
    return previous


def active_tape():
    """The tape currently recording, or ``None``."""
    return _ACTIVE_TAPE


def invalidate_active_tape(reason: str) -> None:
    """Mark the recording tape unusable (data-dependent control flow, an op
    without a replay rule, ...).  No-op when nothing is recording."""
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.invalidate(reason)


def record_tape_effect(effect: Callable[[], None]) -> None:
    """Record a side effect (e.g. BatchNorm running-buffer updates) at the
    current position of the recording tape.  No-op when nothing records."""
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record_effect(effect)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# Floor for the subnormal guards (sigmoid saturation, the LSTM op's state
# updates and gradients, matmul gradient flush).  One subnormal operand or
# result makes an x86 kernel run 10-100x slower, and a value flushed merely to
# the normal minimum (~1.2e-38) times a small weight (~1e-4..1e-2) lands right
# back in the subnormal range inside the very next GEMM.  1e-30 keeps products
# of guarded values with any realistic training operand normal, while staying
# ~20 orders of magnitude below anything that can move a float32 weight.
_FLUSH_FLOOR = np.float32(1e-30)

_FLUSH_FLOOR_BITS = _FLUSH_FLOOR.view(np.uint32)
_SIGN_BIT = np.uint32(0x80000000)
_ONE_BITS = np.float32(1.0).view(np.uint32)


def _flush_below_floor(a: np.ndarray, scratch: np.ndarray, mask: np.ndarray) -> None:
    """Zero the entries of ``a`` with ``|a| < _FLUSH_FLOOR``, in place.

    The masked multiply only changes entries with ``0 < |a| < floor``, which
    are rare (exact zeros are not: a saturated gate has σ' = 0), so it runs
    only if one exists: on the ``uint32`` view of ``|a|``, ``bits − 1``
    wraps 0 to the maximum, and its minimum is below ``bits(floor) − 1``
    exactly when some such entry exists.  NaN is left as the multiply
    would leave it.  ``scratch`` (float32) and ``mask`` (bool) are
    workspaces shaped like ``a``.
    """
    bits = scratch.view(np.uint32)
    np.abs(a, out=scratch)
    np.subtract(bits, 1, out=bits)
    if bits.min(initial=_FLUSH_FLOOR_BITS) < _FLUSH_FLOOR_BITS - 1:     # empty: no
        np.abs(a, out=scratch)
        np.greater_equal(scratch, _FLUSH_FLOOR, out=mask)
        np.multiply(a, mask, out=a)


def stable_sigmoid(x: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                   mask: np.ndarray) -> None:
    """Write the logistic function of float32 ``x`` into ``out``.

    Two-branch stable form: with ``e = exp(-|x|)``, σ = 1/(1+e) for x ≥ 0 and
    e/(1+e) otherwise, so neither branch can overflow.  The branch select
    picks the numerator (``1`` or ``e``) on ``scratch``'s ``uint32`` view —
    ``((bits(e) ^ bits(1)) · [x < 0]) ^ bits(1)``, branch-free and bit-exact
    for every pattern — and ``-|x|`` is ``x`` with its sign bit set, so the
    result equals ``np.where(x >= 0, 1/(1+e), e/(1+e))`` bit for bit (±0, ±inf
    and NaN included).  Saturated values (σ < ~1e-30, pre-activation below
    ~-69) would underflow toward float32 subnormals, where every downstream
    product runs 10-100x slower on x86; a gate that closed is flushed to 0
    (see ``_FLUSH_FLOOR``).

    ``scratch`` (float32) and ``mask`` (bool) are caller-owned workspaces
    shaped like ``x``; ``out`` may alias ``x``.  Allocates nothing.
    """
    np.less(x, 0, out=mask)                  # before ``out`` (maybe ``x``) is written
    bits = scratch.view(np.uint32)
    np.bitwise_or(x.view(np.uint32), _SIGN_BIT, out=bits)       # -|x|
    np.exp(scratch, out=scratch)
    np.add(scratch, 1.0, out=out)
    np.bitwise_xor(bits, _ONE_BITS, out=bits)
    np.multiply(bits, mask, out=bits)
    np.bitwise_xor(bits, _ONE_BITS, out=bits)                   # e if x < 0 else 1
    np.divide(scratch, out, out=out)
    _flush_below_floor(out, scratch, mask)


def backward_order(root: "Tensor") -> List["Tensor"]:
    """Topological order of the graph below ``root``, parents first.

    One iterative DFS serves :meth:`Tensor.backward` and the tape replayer
    (:mod:`repro.tensor.tape`): float accumulation into multi-consumer parents
    depends on the order, so both must walk exactly this one.
    """
    topo: List[Tensor] = []
    visited: set[int] = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


class Tensor:
    """An n-dimensional array with optional gradient tracking.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of dtype float32/float64
        (integer data is allowed for index tensors but cannot require grad).
    requires_grad:
        If True, gradients are accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op",
                 "_grad_view", "_grad_foreign")
    __array_priority__ = 100.0  # make NumPy defer to Tensor's reflected ops

    def __init__(self, data: ArrayLike, requires_grad: bool = False, *,
                 _parents: Tuple["Tensor", ...] = (), _op: str = "leaf"):
        if type(data) is np.ndarray:
            arr = data
        elif isinstance(data, Tensor):
            arr = data.data
        else:
            arr = np.asarray(data)
        dtype = arr.dtype
        if dtype != np.float32 and dtype not in (np.int64, np.int32, np.bool_):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        if requires_grad and not np.issubdtype(arr.dtype, np.floating):
            raise ValueError("only floating point tensors can require gradients")
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._grad_view: Optional[np.ndarray] = None
        self._grad_foreign: bool = False
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = _parents if self.requires_grad or _parents else ()
        self.op: str = _op

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def pin_grad(self, view: Optional[np.ndarray]) -> None:
        """Pin gradient storage to a preallocated array (usually a strided view
        into a flat per-replica buffer — see :mod:`repro.core.flat_buffer`).

        While pinned, the first ``backward`` accumulation writes into ``view``
        in place and sets ``self.grad`` to it, so flattening the gradients of a
        pinned model is a no-op.  Passing ``None`` unpins.  Code that assigns
        ``self.grad`` directly still works: the pinned view is only used when a
        fresh gradient buffer would otherwise have been allocated.
        """
        if view is not None:
            if view.shape != self.data.shape:
                raise ValueError(f"pinned view shape {view.shape} does not match "
                                 f"tensor shape {self.data.shape}")
            if view.dtype != self.data.dtype:
                raise ValueError("pinned view dtype must match the tensor dtype")
        self._grad_view = view
        if self.grad is not None:
            self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], op: str,
              backward: Callable[[np.ndarray], None],
              replay=_NO_REPLAY) -> "Tensor":
        """Create an op output, wiring the backward closure when needed.

        ``replay`` is the op's tape-replay rule: a thunk that refreshes the
        output (and any captured scratch arrays) in place, ``_VIEW_REPLAY``
        when the output aliases a parent, or ``_NO_REPLAY`` (the default) when
        the op cannot be replayed — recording such an op invalidates the tape.
        """
        requires = False
        if _GRAD_ENABLED:
            for p in parents:
                if p.requires_grad:
                    requires = True
                    break
        out = Tensor(data, requires_grad=requires, _parents=tuple(parents) if requires else (),
                     _op=op)
        if requires:
            out._backward = backward
        if _ACTIVE_TAPE is not None:
            _ACTIVE_TAPE.record_node(out, replay)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad`` (allocating on first use).

        When gradient storage is pinned (:meth:`pin_grad`) the accumulation
        happens in place inside the pinned buffer, so no per-parameter arrays
        are allocated on the training hot path.
        """
        if type(grad) is not np.ndarray:
            grad = np.asarray(grad)
        if grad.dtype != self.data.dtype:
            target = self.data.dtype if np.issubdtype(self.data.dtype, np.floating) else np.float32
            grad = grad.astype(target)
        current = self.grad
        pinned = self._grad_view
        if current is None:
            if pinned is not None:
                pinned[...] = grad
                self.grad = pinned
                self._grad_foreign = False
            else:
                if grad.base is not None or grad is self.data:
                    grad = grad.copy()
                    self._grad_foreign = False
                else:
                    # Stored by reference: the array may still be shared with
                    # another consumer's grad (equal-shape pass-through ops
                    # hand the same array to every parent), so in-place
                    # accumulation paths must copy before mutating it.
                    self._grad_foreign = True
                self.grad = grad
        elif current is pinned:
            pinned += grad
        else:
            self.grad = current + grad
            self._grad_foreign = False

    def _accumulate_at(self, index, grad: np.ndarray, basic: bool) -> None:
        """Scatter-accumulate ``grad`` into ``self.grad`` at ``index``.

        Equivalent to building a dense zeros-like array, scattering into it
        and calling :meth:`_accumulate`, but without the dense temporary or
        the full-array add — slice/gather backward passes (the LSTM op's
        output views, embedding lookups) hit this every training iteration.
        """
        target = self.grad
        if target is None:
            target = self._grad_view
            if target is not None:
                target[...] = 0.0
            else:
                target = np.zeros_like(self.data)
            self.grad = target
            self._grad_foreign = False
        elif self._grad_foreign:
            target = target.copy()
            self.grad = target
            self._grad_foreign = False
        if basic:
            target[index] += grad
        else:
            np.add.at(target, index, grad)

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to 1 for scalar outputs (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad if not isinstance(grad, Tensor) else grad.data,
                              dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"gradient shape {grad.shape} does not match output shape {self.data.shape}")

        self._accumulate(grad)
        for node in reversed(backward_order(self)):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
            # Free intermediate gradients to bound memory in long chains; leaves
            # (parents == ()) keep theirs for the optimizer.
            if node._parents:
                node.grad = None

    # ------------------------------------------------------------------ #
    # elementwise arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float32))

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self, other), "add", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.add(self.data, other.data, out=out_data)

        return Tensor._make(out_data, (self, other), "add", backward, replay)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self, other), "sub", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.subtract(self.data, other.data, out=out_data)

        return Tensor._make(out_data, (self, other), "sub", backward, replay)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor._coerce(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self, other), "mul", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.multiply(self.data, other.data, out=out_data)

        return Tensor._make(out_data, (self, other), "mul", backward, replay)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad * self.data / (other.data ** 2), other.shape))

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self, other), "div", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.divide(self.data, other.data, out=out_data)

        return Tensor._make(out_data, (self, other), "div", backward, replay)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor._coerce(other) / self

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "neg", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.negative(self.data, out=out_data)

        return Tensor._make(out_data, (self,), "neg", backward, replay)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * (self.data ** (exponent - 1)))

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "pow", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.power(self.data, exponent, out=out_data)

        return Tensor._make(out_data, (self,), "pow", backward, replay)

    # Comparisons produce detached boolean/float tensors (no gradient); the
    # result is data-dependent in a way a tape replay cannot refresh, so they
    # invalidate any recording in progress.
    def __gt__(self, other: ArrayLike) -> "Tensor":
        invalidate_active_tape("comparison (gt)")
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor((self.data > other_data).astype(np.float32))

    def __lt__(self, other: ArrayLike) -> "Tensor":
        invalidate_active_tape("comparison (lt)")
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor((self.data < other_data).astype(np.float32))

    def __ge__(self, other: ArrayLike) -> "Tensor":
        invalidate_active_tape("comparison (ge)")
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor((self.data >= other_data).astype(np.float32))

    def __le__(self, other: ArrayLike) -> "Tensor":
        invalidate_active_tape("comparison (le)")
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor((self.data <= other_data).astype(np.float32))

    # ------------------------------------------------------------------ #
    # unary math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "exp", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.exp(self.data, out=out_data)

        return Tensor._make(out_data, (self,), "exp", backward, replay)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "log", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.log(self.data, out=out_data)

        return Tensor._make(out_data, (self,), "log", backward, replay)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out_data)

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "sqrt", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.sqrt(self.data, out=out_data)

        return Tensor._make(out_data, (self,), "sqrt", backward, replay)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "tanh", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.tanh(self.data, out=out_data)

        return Tensor._make(out_data, (self,), "tanh", backward, replay)

    def sigmoid(self) -> "Tensor":
        # The eager call and the replay rule are one function writing into
        # workspaces the op owns, so replays allocate nothing.
        out_data = np.empty(self.shape, dtype=np.float32)
        scratch = np.empty_like(out_data)
        mask = np.empty(self.shape, dtype=bool)

        def forward() -> None:
            stable_sigmoid(self.data, out_data, scratch, mask)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        forward()
        return Tensor._make(out_data, (self,), "sigmoid", backward, forward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "relu", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.greater(self.data, 0, out=mask)
            np.multiply(self.data, mask, out=out_data)

        return Tensor._make(out_data, (self,), "relu", backward, replay)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "abs", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.sign(self.data, out=sign)
            np.abs(self.data, out=out_data)

        return Tensor._make(out_data, (self,), "abs", backward, replay)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "clip", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            np.clip(self.data, low, high, out=out_data)
            np.greater_equal(self.data, low, out=mask)
            mask &= self.data <= high

        return Tensor._make(out_data, (self,), "clip", backward, replay)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "sum", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            self.data.sum(axis=axis, keepdims=keepdims, out=out_data)

        return Tensor._make(out_data, (self,), "sum", backward, replay)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = (self.data == out).astype(self.data.dtype)
            # Split the gradient among ties to keep sums exact.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(g * mask / counts)

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "max", backward)
        out_data = np.asarray(out_data)

        def replay() -> None:
            self.data.max(axis=axis, keepdims=keepdims, out=out_data)

        return Tensor._make(out_data, (self,), "max", backward, replay)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "reshape", backward)
        if np.shares_memory(out_data, self.data):
            return Tensor._make(out_data, (self,), "reshape", backward, _VIEW_REPLAY)
        resolved = out_data.shape

        def replay() -> None:
            out_data[...] = self.data.reshape(resolved)

        return Tensor._make(out_data, (self,), "reshape", backward, replay)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if axes is None:
            inverse = None
        else:
            inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        # np.transpose always returns a view, so replay has nothing to do.
        return Tensor._make(out_data, (self,), "transpose", backward, _VIEW_REPLAY)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(axes)

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        out_data = self.data[index]

        # Basic indexing (ints / slices only) selects each element at most once,
        # so a simple in-place add suffices; fancy indexing may repeat elements
        # and needs the unbuffered np.add.at.
        parts = index if isinstance(index, tuple) else (index,)
        basic = all(isinstance(p, (int, np.integer, slice, type(Ellipsis), type(None)))
                    for p in parts)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_at(index, grad, basic)

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "getitem", backward)
        if basic:
            # Basic indexing always yields a view of the parent's data.
            return Tensor._make(out_data, (self,), "getitem", backward, _VIEW_REPLAY)
        out_data = np.asarray(out_data)

        def replay() -> None:
            out_data[...] = self.data[index]

        return Tensor._make(out_data, (self,), "getitem", backward, replay)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions of an NCHW tensor."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.ndim - 2) + [(padding, padding), (padding, padding)]
        out_data = np.pad(self.data, pad_width)
        p = padding

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad[..., p:-p, p:-p])

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self,), "pad2d", backward)

        def replay() -> None:
            # The zero border written at record time never changes; only the
            # interior needs refreshing.
            out_data[..., p:-p, p:-p] = self.data

        return Tensor._make(out_data, (self,), "pad2d", backward, replay)

    # ------------------------------------------------------------------ #
    # linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            # Deep BPTT chains multiply saturated-gate derivatives into the
            # float32 subnormal range, and one subnormal operand — or product
            # with a small weight — makes the matmuls below run 10-100x
            # slower on x86.  Values under the flush floor carry no training
            # signal: flush them (in place — the walk clears this node's grad
            # right after) before the products.
            grad *= np.abs(grad) >= _FLUSH_FLOOR
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if self.data.ndim == 2
                                     else grad[..., None] * other.data)
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.shape))

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, (self, other), "matmul", backward)
        out_data = np.asarray(out_data)
        if (self.data.ndim == other.data.ndim >= 2
                and self.data.shape[:-2] == other.data.shape[:-2]):
            # No broadcasting: both gradient GEMMs keep the operand shapes, so
            # the tape can own persistent workspaces and the recorded backward
            # (which runs on every replay) stops allocating.  Same arithmetic
            # as the generic closure above, routed through ``out=``.
            grad_self = np.empty_like(self.data) if self.requires_grad else None
            grad_other = np.empty_like(other.data) if other.requires_grad else None

            def backward(grad: np.ndarray) -> None:  # noqa: F811
                grad *= np.abs(grad) >= _FLUSH_FLOOR
                if self.requires_grad:
                    np.matmul(grad, np.swapaxes(other.data, -1, -2), out=grad_self)
                    self._accumulate(grad_self)
                if other.requires_grad:
                    np.matmul(np.swapaxes(self.data, -1, -2), grad, out=grad_other)
                    other._accumulate(grad_other)

        if self.data.ndim >= 2 and other.data.ndim >= 2:

            def replay() -> None:
                np.matmul(self.data, other.data, out=out_data)
        else:

            def replay() -> None:
                out_data[...] = self.data @ other.data

        return Tensor._make(out_data, (self, other), "matmul", backward, replay)

    __matmul__ = matmul

    # ------------------------------------------------------------------ #
    # combination ops (static)
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, end)
                    t._accumulate(grad[tuple(slicer)])

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, tuple(tensors), "concat", backward)
        slicers = []
        for start, end in zip(offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * out_data.ndim
            slicer[axis] = slice(start, end)
            slicers.append(tuple(slicer))

        def replay() -> None:
            for t, slicer in zip(tensors, slicers):
                out_data[slicer] = t.data

        return Tensor._make(out_data, tuple(tensors), "concat", backward, replay)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            for i, t in enumerate(tensors):
                if t.requires_grad:
                    t._accumulate(np.take(grad, i, axis=axis))

        if _ACTIVE_TAPE is None:
            return Tensor._make(out_data, tuple(tensors), "stack", backward)
        resolved_axis = axis % out_data.ndim
        slicers = [(slice(None),) * resolved_axis + (i,) for i in range(len(tensors))]

        def replay() -> None:
            for t, slicer in zip(tensors, slicers):
                out_data[slicer] = t.data

        return Tensor._make(out_data, tuple(tensors), "stack", backward, replay)

    @staticmethod
    def where(condition: ArrayLike, a: "Tensor", b: "Tensor") -> "Tensor":
        # The selection mask is data the caller computed outside the graph; a
        # replay cannot know how to refresh it, so recording ``where``
        # invalidates the tape (the executor falls back to eager).
        invalidate_active_tape("where")
        cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
        a = Tensor._coerce(a)
        b = Tensor._coerce(b)
        out_data = np.where(cond, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * cond, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * (~np.asarray(cond, dtype=bool)), b.shape))

        return Tensor._make(out_data, (a, b), "where", backward)


# ---------------------------------------------------------------------- #
# convenience constructors
# ---------------------------------------------------------------------- #
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    """Tensor of zeros."""
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    """Tensor of ones."""
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def randn(*shape: int, rng: Optional[np.random.Generator] = None,
          requires_grad: bool = False) -> Tensor:
    """Tensor of standard-normal samples (reproducible when ``rng`` given)."""
    rng = rng if rng is not None else np.random.default_rng()
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=requires_grad)
