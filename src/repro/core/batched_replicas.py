"""Batched forward/backward over all simulated replicas of an MLP model.

The trainer keeps ``P`` genuinely separate model replicas (A2SGD's replicas
diverge — each worker adds back its own error vector), so the seed ran ``P``
independent autograd passes per iteration.  For the paper's FNN workloads the
replicas share one architecture and differ only in their weights, which means
the whole world can be evaluated as a single batched computation: every
Linear layer's weights are stacked as a ``(P, out, in)`` operand and the
forward/backward pass is a handful of batched matmuls instead of ``P`` Python
graph traversals.

Zero-copy by construction: the stacked weight operands are strided views of
the world's flat ``(P, n)`` parameter matrix (:class:`WorldFlatBuffers`), and
the backward pass writes layer gradients straight into the flat ``(P, n)``
gradient matrix the compressors consume.  No flatten/unflatten step exists.

:class:`BatchedReplicaExecutor` handles the ``Linear``/``ReLU`` sandwich used
by the FNN models (hand-derived backward, the same formulas as the autograd
closures: softmax cross-entropy ``(p - 1[y])/B``, ReLU masking,
``dW = dZᵀX``, ``db = Σ dZ``, ``dX = dZ W``).  Same formulas, different
float32 operation order: its gradients are float32-close to the autograd
executors', not bit-identical (max |ΔG| = 5.96e-8, nonzero in every
parameter segment, on fnn3/tiny at P = 4), which is why the trainer-vs-oracle
test pins fnn3 with ``allclose(atol=1e-5)`` and lstm/resnet with
``array_equal``.

Recurrent and convolutional stacks run through the *generic* batched
executors instead: :class:`ReplicaStack` exposes each parameter of the world
as one stacked ``(P, *shape)`` autograd tensor (data = strided view of the
flat ``(P, n)`` parameter matrix, gradient pinned to the matching view of the
gradient matrix), and the models' ``forward_batched`` mirrors evaluate all
replicas in one graph whose per-replica slices perform exactly the seed
arithmetic — so LSTM/conv gradients are bit-identical to the per-replica
autograd loop while paying one Python graph instead of ``P``.
:class:`BatchedAutogradExecutor` covers classifiers (ResNet, VGG, and any
model exposing ``forward_batched``), :class:`BatchedLanguageModelExecutor`
covers the LSTM language model with stacked truncated-BPTT state.  A model
with a layer lacking ``forward_batched`` has no executor:
:func:`build_replica_executor` raises, naming the layer types.
:class:`RankExecutors` runs one P = 1 executor per rank (language models
whose shards differ in width).

Every executor keeps per-input-signature state across iterations: the two
autograd executors record their batched graph on a
:class:`~repro.tensor.tape.Tape` the first time they see a signature and
replay it afterwards; the MLP executor routes its fixed program through a
preallocated :class:`_MLPWorkspace`.  Both are bit-identical to the plain
eager pass, which survives only as the recording pass and as the fallback
for graphs that cannot be replayed and signatures past :data:`_MAX_TAPES`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.flat_buffer import WorldFlatBuffers
from repro.nn.activations import ReLU
from repro.nn.container import Sequential
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F
from repro.tensor.tape import Tape, TapeReplayer, recording

#: Distinct input-shape signatures an executor keeps recordings (or MLP
#: workspaces) for — typically two: the steady batch and the smaller trailing
#: batch.  Unseen signatures beyond the cap run without being kept.
_MAX_TAPES = 4


def _linear_relu_stack(model: Module) -> Optional[List[Tuple[str, Optional[Linear]]]]:
    """The model's layer sequence if it is an MLP this executor can run."""
    if isinstance(model, Sequential):
        net = model
    else:
        net = getattr(model, "net", None)
        if not isinstance(net, Sequential):
            return None
        # Only trust models whose forward is "flatten input, then net" —
        # anything else (extra heads, state) needs the autograd path.
        extra_children = [m for name, m in model._modules.items() if m is not net]
        if extra_children:
            return None
    steps: List[Tuple[str, Optional[Linear]]] = []
    for layer in net:
        if isinstance(layer, Linear):
            steps.append(("linear", layer))
        elif isinstance(layer, ReLU):
            steps.append(("relu", None))
        else:
            return None
    if not steps or steps[0][0] != "linear" or steps[-1][0] != "linear":
        return None
    return steps


class _MLPWorkspace:
    """Preallocated buffers for one input signature of the MLP executor."""

    __slots__ = ("input_buf", "target_buf", "acts", "masks", "tmp_w", "dz",
                 "shifted", "exp", "sum_exp", "log_sum", "log_probs", "picked_mean",
                 "dz0")

    def __init__(self, plan, P: int, batch: int, features: int, classes: int):
        self.input_buf = np.empty((P, batch, features), dtype=np.float32)
        self.target_buf = np.empty((P, batch), dtype=np.int64)
        self.acts: List[Optional[np.ndarray]] = []
        self.masks: List[Optional[np.ndarray]] = []
        self.tmp_w: List[Optional[np.ndarray]] = []
        self.dz: List[Optional[np.ndarray]] = []
        width = features
        for kind, weights, _, _, _ in plan:
            if kind == "relu":
                self.acts.append(None)
                self.masks.append(np.empty((P, batch, width), dtype=bool))
                self.tmp_w.append(None)
                self.dz.append(None)
            else:
                out_features, in_features = weights.shape[1], weights.shape[2]
                self.acts.append(np.empty((P, batch, out_features), dtype=np.float32))
                self.masks.append(None)
                self.tmp_w.append(np.empty((P, out_features, in_features),
                                           dtype=np.float32))
                self.dz.append(np.empty((P, batch, in_features), dtype=np.float32))
                width = out_features
        self.shifted = np.empty((P, batch, classes), dtype=np.float32)
        self.exp = np.empty((P, batch, classes), dtype=np.float32)
        self.sum_exp = np.empty((P, batch, 1), dtype=np.float32)
        self.log_sum = np.empty((P, batch, 1), dtype=np.float32)
        self.log_probs = np.empty((P, batch, classes), dtype=np.float32)
        self.picked_mean = np.empty((P,), dtype=np.float32)
        self.dz0 = np.empty((P, batch, classes), dtype=np.float32)


class BatchedReplicaExecutor:
    """One fused forward/backward for ``P`` replicas of a Linear/ReLU MLP.

    The MLP plan is already a fixed program (no Python graph to record), so
    per input signature every intermediate gets a persistent
    :class:`_MLPWorkspace` buffer and the arithmetic is routed through ufunc /
    ``np.matmul`` ``out=`` — near-zero per-iteration allocation.  Signatures
    past :data:`_MAX_TAPES` run through a workspace built for that call only.
    """

    def __init__(self, replicas: Sequence[Module], world: WorldFlatBuffers):
        steps = _linear_relu_stack(replicas[0])
        if steps is None:
            raise ValueError("model is not a Linear/ReLU stack")
        self.world = world

        index_of = {id(p): i for i, p in enumerate(world.replica_buffers[0].parameters)}
        self._plan: List[Tuple[str, Optional[np.ndarray], Optional[np.ndarray],
                               Optional[np.ndarray], Optional[np.ndarray]]] = []
        for kind, layer in steps:
            if kind == "relu":
                self._plan.append(("relu", None, None, None, None))
                continue
            w_index = index_of[id(layer.weight)]
            weights = world.stacked_param_view(w_index)       # (P, out, in) view
            grad_w = world.stacked_grad_view(w_index)
            if layer.bias is not None:
                b_index = index_of[id(layer.bias)]
                biases = world.stacked_param_view(b_index)    # (P, out) view
                grad_b = world.stacked_grad_view(b_index)
            else:
                biases = grad_b = None
            self._plan.append(("linear", weights, biases, grad_w, grad_b))
        self._workspaces: Dict[Tuple[int, ...], _MLPWorkspace] = {}
        self.tape_stats: Dict[str, int] = {"recorded": 0, "replays": 0, "eager": 0}

    @staticmethod
    def supports(model: Module) -> bool:
        """Whether this executor can run the model (Linear/ReLU MLP)."""
        return _linear_relu_stack(model) is not None

    # ------------------------------------------------------------------ #
    def forward_backward(self, inputs: np.ndarray, targets: np.ndarray) -> List[float]:
        """Cross-entropy forward + backward for every replica at once.

        ``inputs`` is the stacked per-replica batch ``(P, B, ...)`` and
        ``targets`` the integer labels ``(P, B)``.  Layer gradients are
        written directly into the world's flat gradient matrix (zero-copy);
        the per-replica mean losses are returned.
        """
        P = self.world.world_size
        if inputs.shape[0] != P:
            raise ValueError(f"expected {P} replica batches, got {inputs.shape[0]}")
        batch = inputs.shape[1]
        features = int(np.prod(inputs.shape[2:]))
        signature = (P, batch, features)
        ws = self._workspaces.get(signature)
        if ws is not None:
            self.tape_stats["replays"] += 1
        else:
            classes = self._plan[-1][1].shape[1]
            ws = _MLPWorkspace(self._plan, P, batch, features, classes)
            if len(self._workspaces) < _MAX_TAPES:
                self._workspaces[signature] = ws
                self.tape_stats["recorded"] += 1
            else:
                self.tape_stats["eager"] += 1

        np.copyto(ws.input_buf, np.asarray(inputs).reshape(P, batch, features),
                  casting="unsafe")
        np.copyto(ws.target_buf, np.asarray(targets).reshape(P, batch),
                  casting="unsafe")

        # ---- forward ---------------------------------------------------- #
        X = ws.input_buf
        layer_inputs: List[np.ndarray] = []
        for step, (kind, weights, biases, _, _) in enumerate(self._plan):
            if kind == "relu":
                mask = ws.masks[step]
                np.greater(X, 0, out=mask)
                np.multiply(X, mask, out=X)
            else:
                layer_inputs.append(X)
                act = ws.acts[step]
                np.matmul(X, weights.transpose(0, 2, 1), out=act)
                if biases is not None:
                    np.add(act, biases[:, None, :], out=act)
                X = act
        logits = X                                            # (P, B, C)

        # ---- softmax cross-entropy (per replica) ------------------------ #
        np.subtract(logits, logits.max(axis=2, keepdims=True), out=ws.shifted)
        np.exp(ws.shifted, out=ws.exp)
        ws.exp.sum(axis=2, keepdims=True, out=ws.sum_exp)
        np.log(ws.sum_exp, out=ws.log_sum)
        np.subtract(ws.shifted, ws.log_sum, out=ws.log_probs)
        replica_index = np.arange(P)[:, None]
        batch_index = np.arange(batch)[None, :]
        np.mean(ws.log_probs[replica_index, batch_index, ws.target_buf],
                axis=1, out=ws.picked_mean)
        np.negative(ws.picked_mean, out=ws.picked_mean)

        np.divide(ws.exp, ws.sum_exp, out=ws.dz0)
        ws.dz0[replica_index, batch_index, ws.target_buf] -= 1.0
        ws.dz0 /= batch

        # ---- backward ---------------------------------------------------- #
        dZ = ws.dz0
        linear_cursor = len(layer_inputs)
        for step in range(len(self._plan) - 1, -1, -1):
            kind, weights, biases, grad_w, grad_b = self._plan[step]
            if kind == "relu":
                np.multiply(dZ, ws.masks[step], out=dZ)
            else:
                linear_cursor -= 1
                layer_input = layer_inputs[linear_cursor]
                tmp_w = ws.tmp_w[step]
                np.matmul(dZ.transpose(0, 2, 1), layer_input, out=tmp_w)
                grad_w[...] = tmp_w
                if grad_b is not None:
                    dZ.sum(axis=1, out=grad_b)
                if step > 0:
                    np.matmul(dZ, weights, out=ws.dz[step])
                    dZ = ws.dz[step]

        # Expose the freshly written flat storage through param.grad so the
        # looped optimizer path / introspection see the same gradients.
        for buffers in self.world.replica_buffers:
            buffers.attach_grads()
        return [float(value) for value in ws.picked_mean]


def stack_rows(rows) -> np.ndarray:
    """Per-rank arrays as one stacked ``(P, ...)`` batch.  A ``None`` row — a
    rank whose result the caller does not need — becomes zeros shaped like
    the others; an array passes through."""
    if isinstance(rows, np.ndarray):
        return rows
    template = next(row for row in rows if row is not None)
    return np.asarray([np.zeros_like(template) if row is None else row for row in rows])


class ReplicaStack:
    """Stacked ``(P, *shape)`` autograd views over a world's parameters.

    For parameter ``i`` of the shared layout, :meth:`tensor` returns one
    :class:`~repro.tensor.Tensor` whose data is the strided
    ``(P, *shape)`` view of the world's flat parameter matrix and whose
    gradient is pinned to the matching view of the gradient matrix — so a
    single batched autograd pass reads live parameters and writes gradients
    for every replica with zero copies.  :meth:`siblings` resolves a module of
    replica 0 to the corresponding module on every replica (needed by layers
    with per-replica buffers, e.g. BatchNorm running statistics).

    A ``forward_batched`` body needs only :meth:`tensor`, :meth:`siblings`
    and :attr:`world_size`; the per-replica call ``module(x)`` runs the same
    body over a stack of one with that interface (:mod:`repro.nn.module`),
    with no flat world behind it.
    """

    def __init__(self, replicas: Sequence[Module], world: WorldFlatBuffers):
        if len(replicas) != world.world_size:
            raise ValueError(f"{len(replicas)} replicas for world size {world.world_size}")
        self.world = world
        self.replicas = list(replicas)
        self._index_of: Dict[int, int] = {
            id(p): i for i, p in enumerate(world.replica_buffers[0].parameters)}
        self._tensors: Dict[int, Tensor] = {}
        module_rows = [list(replica.modules()) for replica in replicas]
        if len({len(row) for row in module_rows}) != 1:
            raise ValueError("replicas do not share one module structure")
        self._siblings: Dict[int, Tuple[Module, ...]] = {
            id(group[0]): group for group in zip(*module_rows)}

    @property
    def world_size(self) -> int:
        return self.world.world_size

    def tensor(self, param: Parameter) -> Tensor:
        """The stacked ``(P, *shape)`` tensor for a replica-0 parameter."""
        index = self._index_of[id(param)]
        stacked = self._tensors.get(index)
        if stacked is None:
            stacked = Tensor(self.world.stacked_param_view(index), requires_grad=True)
            stacked.pin_grad(self.world.stacked_grad_view(index))
            self._tensors[index] = stacked
        return stacked

    def siblings(self, module: Module) -> Tuple[Module, ...]:
        """The corresponding module on every replica (replica order)."""
        return self._siblings[id(module)]

    def begin_iteration(self) -> None:
        """Reset the stacked gradients so the first accumulation overwrites
        the pinned views (no O(P·n) memset needed)."""
        for stacked in self._tensors.values():
            stacked.grad = None

    def attach_grads(self) -> None:
        """Expose the flat gradient storage through every ``param.grad``."""
        for buffers in self.world.replica_buffers:
            buffers.attach_grads()


class _GraphRecording:
    """One recorded iteration: the replayer plus the swappable input buffers."""

    __slots__ = ("replayer", "input_buf", "target_buf", "state_bufs", "new_state")

    def __init__(self, replayer: TapeReplayer, input_buf: np.ndarray,
                 target_buf: np.ndarray, state_bufs=None, new_state=None):
        self.replayer = replayer
        self.input_buf = input_buf
        self.target_buf = target_buf
        self.state_bufs = state_bufs
        self.new_state = new_state


def _tape_for(recordings: Dict, signature: Tuple[int, ...]) -> Optional[Tape]:
    """A fresh tape on first sight of ``signature`` while fewer than
    :data:`_MAX_TAPES` are kept; ``None`` (run eagerly) otherwise."""
    if signature in recordings or len(recordings) >= _MAX_TAPES:
        return None
    return Tape()


def _finish_pass(executor, signature: Tuple[int, ...], tape: Optional[Tape],
                 loss: Tensor, *buffers, **state) -> List[float]:
    """Backward of a pass run under ``tape``, then keep its recording.

    A valid tape becomes the signature's :class:`_GraphRecording` (with the
    pass's owned ``buffers`` / ``state`` as its input buffers); an invalid one
    marks the signature permanently eager.
    """
    loss.backward(np.ones(executor.stack.world_size, dtype=np.float32))
    executor.stack.attach_grads()
    if tape is not None and tape.valid:
        executor._recordings[signature] = _GraphRecording(
            TapeReplayer(tape, loss), *buffers, **state)
        executor.tape_stats["recorded"] += 1
    else:
        if tape is not None:
            executor._recordings[signature] = None
        executor.tape_stats["eager"] += 1
    return [float(value) for value in loss.data]


def _replay(executor, rec: _GraphRecording) -> List[float]:
    """Run a recording whose input buffers already hold this iteration."""
    executor.stack.begin_iteration()
    loss_data = rec.replayer.replay()
    executor.stack.attach_grads()
    executor.tape_stats["replays"] += 1
    return [float(value) for value in loss_data]


class BatchedAutogradExecutor:
    """One fused autograd pass for ``P`` replicas of any batchable classifier.

    Complements :class:`BatchedReplicaExecutor` (the hand-derived MLP fast
    path): the model's ``forward_batched`` mirror builds a single graph over
    the stacked ``(P, N, ...)`` batch with :class:`ReplicaStack` parameter
    views, and one backward pass writes every replica's gradients into the
    flat ``(P, n)`` matrix — bit-identical to ``P`` independent autograd
    passes, at a fraction of the Python graph overhead.

    The first call with a given input shape runs that pass with a
    :class:`~repro.tensor.tape.Tape` installed; later calls copy the new batch
    into the recorded input buffers and replay the recorded program of
    workspace-reusing thunks, bit-identical to the pass itself.  Graphs that record unreplayable ops (``where``,
    eval-mode BatchNorm, ...) and signatures past :data:`_MAX_TAPES` keep
    running the pass without a tape.
    """

    def __init__(self, replicas: Sequence[Module], world: WorldFlatBuffers):
        self.stack = ReplicaStack(replicas, world)
        self.model = replicas[0]
        self.world = world
        #: signature -> _GraphRecording, or None when that signature's graph
        #: recorded an unreplayable op (permanent eager fallback).
        self._recordings: Dict[Tuple[int, ...], Optional[_GraphRecording]] = {}
        self.tape_stats: Dict[str, int] = {"recorded": 0, "replays": 0, "eager": 0}

    def forward_backward(self, inputs: np.ndarray, targets: np.ndarray) -> List[float]:
        """Cross-entropy forward + backward for every replica at once.

        Same contract as :meth:`BatchedReplicaExecutor.forward_backward`:
        stacked inputs ``(P, B, ...)`` and integer targets ``(P, B)`` in,
        per-replica mean losses out, gradients written into the world's flat
        gradient matrix.
        """
        P = self.stack.world_size
        inputs = np.asarray(inputs, dtype=np.float32)
        if inputs.shape[0] != P:
            raise ValueError(f"expected {P} replica batches, got {inputs.shape[0]}")
        signature = inputs.shape
        rec = self._recordings.get(signature)
        if rec is not None:
            np.copyto(rec.input_buf, inputs)
            np.copyto(rec.target_buf, np.asarray(targets), casting="unsafe")
            return _replay(self, rec)

        tape = _tape_for(self._recordings, signature)
        input_buf = np.array(inputs)        # owned: a recording's input buffer
        target_buf = np.ascontiguousarray(np.asarray(targets))
        self.stack.begin_iteration()
        with recording(tape):
            logits = self.model.forward_batched(Tensor(input_buf), self.stack)
            loss = F.cross_entropy_batched(logits, target_buf)
        return _finish_pass(self, signature, tape, loss, input_buf, target_buf)


class BatchedLanguageModelExecutor:
    """Fused truncated-BPTT pass for ``P`` replicas of a language model.

    Threads one *stacked* LSTM state (``(P, N, H)`` tensors per layer)
    between windows instead of ``P`` per-replica states; gradients land in
    the flat ``(P, n)`` matrix exactly as the classification executors'.

    Records and replays per signature like :class:`BatchedAutogradExecutor`.
    The recorded graph takes the carried state through owned ``(P, N, H)``
    input buffers: each replay first copies the incoming state (or zeros, at
    an epoch start) into those buffers — the incoming tensors alias the
    previous replay's *output* buffers, which the program is about to
    overwrite, so the copy must happen before the program runs.  One tape
    serves both the fresh-state and carried-state cases.
    """

    def __init__(self, replicas: Sequence[Module], world: WorldFlatBuffers):
        self.stack = ReplicaStack(replicas, world)
        self.model = replicas[0]
        self.world = world
        self._recordings: Dict[Tuple[int, ...], Optional[_GraphRecording]] = {}
        self.tape_stats: Dict[str, int] = {"recorded": 0, "replays": 0, "eager": 0}

    def forward_backward(self, tokens: np.ndarray, targets: np.ndarray,
                         state) -> Tuple[List[float], object]:
        """One BPTT window for every replica at once.

        ``tokens``/``targets`` are stacked ``(P, T, N)`` integer batches (an
        array or ``P`` equally-shaped per-rank arrays, where a ``None`` row
        runs on zeros — see :func:`stack_rows`); ``state`` is ``None``
        at an epoch start or whatever the previous call returned.  Returns the per-replica mean losses and the detached
        stacked state for the next window.
        """
        P = self.stack.world_size
        tokens = stack_rows(tokens)
        if tokens.shape[0] != P:
            raise ValueError(f"expected {P} replica batches, got {tokens.shape[0]}")
        targets = stack_rows(targets).reshape(P, -1)
        signature = tokens.shape
        rec = self._recordings.get(signature)
        if rec is not None:
            if state is None:
                for h_buf, c_buf in rec.state_bufs:
                    h_buf[...] = 0.0
                    c_buf[...] = 0.0
            else:
                for (h_buf, c_buf), (h, c) in zip(rec.state_bufs, state):
                    np.copyto(h_buf, h.data)
                    np.copyto(c_buf, c.data)
            np.copyto(rec.input_buf, tokens, casting="unsafe")
            np.copyto(rec.target_buf, targets, casting="unsafe")
            return _replay(self, rec), self.model.detach_state(rec.new_state)

        tape = _tape_for(self._recordings, signature)
        token_buf = np.ascontiguousarray(tokens)
        target_buf = np.ascontiguousarray(targets)
        if state is None:
            state = self.model.initial_state_batched(P, tokens.shape[-1])
        else:
            # Owned copies: a recording's state input buffers.
            state = [(Tensor(np.array(h.data)), Tensor(np.array(c.data)))
                     for h, c in state]
        self.stack.begin_iteration()
        with recording(tape):
            loss, new_state = self.model.forward_batched(token_buf, state, target_buf,
                                                         stack=self.stack)
        losses = _finish_pass(self, signature, tape, loss, token_buf, target_buf,
                              state_bufs=[(h.data, c.data) for h, c in state],
                              new_state=new_state)
        return losses, self.model.detach_state(new_state)

    def select_states(self, take: Sequence[bool], first, second):
        """Per replica, the carried state row of ``first`` where ``take`` is
        set and of ``second`` elsewhere, as owned arrays (``None`` is the
        zero state).  The copies matter: a replay's carried state aliases
        its recording's output buffers, which the next replay overwrites."""
        if first is None and second is None:
            return None
        template = first if first is not None else second
        rows = np.asarray(take, dtype=bool).reshape(-1, 1, 1)

        def arrays(state):
            if state is None:
                return [(np.zeros_like(h.data), np.zeros_like(c.data))
                        for h, c in template]
            return [(h.data, c.data) for h, c in state]

        return [(Tensor(np.where(rows, h1, h2)), Tensor(np.where(rows, c1, c2)))
                for (h1, c1), (h2, c2) in zip(arrays(first), arrays(second))]


def replica_executor_class(model: Module, task: str) -> type:
    """The executor class :func:`build_replica_executor` picks for ``model``.

    Classification MLPs get the hand-derived :class:`BatchedReplicaExecutor`,
    other classifiers the generic :class:`BatchedAutogradExecutor`, language
    models :class:`BatchedLanguageModelExecutor`.  A model with no executor
    raises one ``ValueError`` naming the layer types that lack
    ``forward_batched`` — the check a backend runs before it spawns anything.
    """
    if task == "classification" and BatchedReplicaExecutor.supports(model):
        return BatchedReplicaExecutor
    # E.g. nn.Dropout: a stacked pass cannot draw the per-replica masks in
    # the order each replica's own generator would.
    missing = sorted({type(module).__name__ for module in model.modules()
                      if not hasattr(type(module), "forward_batched")})
    if missing:
        raise ValueError(f"model {type(model).__name__} has no batched executor: "
                         f"{', '.join(missing)} lack forward_batched")
    if task == "classification":
        return BatchedAutogradExecutor
    if task == "language_model":
        if not hasattr(type(model), "detach_state"):
            raise ValueError(f"language model {type(model).__name__} has no "
                             "batched executor: it lacks detach_state")
        return BatchedLanguageModelExecutor
    raise ValueError(f"unknown task {task!r}")


def build_replica_executor(replicas: Sequence[Module], world: WorldFlatBuffers,
                           task: str):
    """The fastest batched executor over ``replicas`` and their ``world``.

    Never ``None``: see :func:`replica_executor_class` for the selection
    rule and the ``ValueError`` an unsupported model raises.
    """
    return replica_executor_class(replicas[0], task)(replicas, world)


class RankExecutors:
    """One P = 1 executor per rank, each over that rank's row of the world.

    Built by the rule of :func:`build_replica_executor` on
    :meth:`WorldFlatBuffers.row`, so a rank replays the program recorded for
    its own batch shape and writes its gradient row in place.  The trainer
    uses it for language models whose shards differ in width and cannot be
    stacked: :meth:`forward_backward` runs every rank in turn.
    """

    def __init__(self, replicas: Sequence[Module], world: WorldFlatBuffers,
                 task: str):
        self.executors = [build_replica_executor([replica], world.row(rank), task)
                          for rank, replica in enumerate(replicas)]

    def forward_backward(self, inputs: Sequence[np.ndarray],
                         targets: Sequence[np.ndarray],
                         states=None) -> Tuple[List[float], List]:
        """Every rank in turn: per-rank batches in, per-rank losses and the
        per-rank carried states out (``states`` is ``None`` at an epoch
        start, and so is a rank's entry when its BPTT state restarts) —
        :class:`BatchedLanguageModelExecutor`'s contract.  A rank whose batch
        is ``None`` is skipped: its gradient row stays as it was, and its
        loss and state are ``None``."""
        if states is None:
            states = [None] * len(self.executors)
        losses, carried = [], []
        for executor, x, y, state in zip(self.executors, inputs, targets, states):
            if x is None:
                losses.append(None)
                carried.append(None)
                continue
            rank_losses, state = executor.forward_backward(x[None], y[None], state)
            losses.append(rank_losses[0])
            carried.append(state)
        return losses, carried

    def select_states(self, take: Sequence[bool], first, second) -> List:
        """Per rank, an owned copy of ``first``'s state where ``take`` is set
        and of ``second``'s elsewhere (``None`` is the zero state) — the
        per-rank form of :meth:`BatchedLanguageModelExecutor.select_states`."""
        size = len(self.executors)
        first = [None] * size if first is None else first
        second = [None] * size if second is None else second
        return [None if state is None else
                [(Tensor(h.data.copy()), Tensor(c.data.copy())) for h, c in state]
                for state in (a if pick else b
                              for pick, a, b in zip(take, first, second))]
