"""Multiprocessing execution backend: real parallel workers, shared buffers.

Process model
-------------
The parent (trainer) process keeps everything except the forward/backward
pass: data loading, the synchronization strategy's exchange, the fused
optimizer step, the parameter phase, callbacks, evaluation and
checkpointing.  Each worker process owns a contiguous shard of ranks
(``np.array_split``), attaches to the shared segments, rebuilds its shard's
replicas for *structure only* (``adopt_values=False`` re-points them at the
shared parameter rows the parent initialized) and loops:

    release barrier → read command → forward/backward on its shard → write
    losses → join barrier

The flat ``(P, n)`` parameter and gradient matrices live in one
:class:`~repro.backends.shm.SharedMemoryArena` segment; the parent's
``WorldFlatBuffers`` and every worker's shard world are views of the same
physical pages, so gradients written by a worker's backward pass are the
matrix the parent's compressor kernels consume — zero pickling, zero copies
on the hot path.  BatchNorm running stats are adopted into per-rank shared
slots the same way, so the parent's evaluation-time replicas see the
statistics the workers accumulated.

Coordination is a generation-counting :class:`ShmBarrier` over a
single-writer int64 slot (:mod:`repro.backends.shm`): odd generations
release a step, even ones join it.  Workers read the command slot only right
after a release, so a shutdown published by the parent is seen by every
worker at the same generation and each one exits having arrived at it.  The
parent polls worker liveness while blocked and raises a
:class:`WorkerDiedError` naming the dead rank shard instead of hanging.

Tapes are never pickled: each worker builds its own batched executor over
its shard rows and records the graph locally on its first iteration — the
"re-record in worker" half of the tape-shipping design.

Determinism
-----------
Batched execution is row-independent (the PR-3 executor tests pin batched ==
per-replica-loop bit-identity for any world size), so a shard of ``S`` rows
computes exactly what those rows compute inside the full ``(P, B, ...)``
batch.  Workers enable the same flush-to-zero mode as the parent and derive
replica initialization from the same centralized seed
(:func:`repro.utils.rng.replica_init_seed`); every RNG the run consumes
(batch order, compressor dithering) stays in the parent.  The backend is
therefore bit-identical to ``inprocess`` — parameters, losses and metrics.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import EXECUTION_BACKENDS, ExecutionBackend
from repro.backends.shm import BarrierTimeout, SharedMemoryArena, ShmBarrier
from repro.core.batched_replicas import replica_executor_class
from repro.core.flat_buffer import (
    FlatLayout,
    WorldFlatBuffers,
    adopt_module_buffers,
)
from repro.nn.module import Module

#: The ctrl slot's one cell: the command workers read after each release.
CMD_RUN, CMD_SHUTDOWN = 0, 1

#: Wall-clock bound on one worker forward/backward before the parent gives
#: up (liveness is polled far sooner; this guards against a livelocked
#: worker, not a slow one — tiny-preset steps take milliseconds).
STEP_TIMEOUT_S = 600.0


class WorkerDiedError(RuntimeError):
    """A worker process exited (crash/OOM/SIGKILL) while the run needed it."""


def _buffer_slot(rank: int, name: str) -> str:
    return f"buffers:{rank}:{name}"


def _worker_main(payload: dict) -> None:
    """Worker process entry point: attach, rebuild the shard, serve steps."""
    # Mirror the parent's kernel environment: flush-to-zero is enabled at
    # ``import repro`` on the importing thread; under the fork start method
    # this thread inherited the parent's MXCSR, under spawn the fresh import
    # set it — calling again is idempotent and keeps both paths identical.
    from repro.models.registry import get_model_spec
    from repro.core.batched_replicas import build_replica_executor
    from repro.utils import denormals
    from repro.utils.rng import replica_init_seed

    denormals.enable_flush_to_zero()
    parent_pid = payload["parent_pid"]

    def check_parent() -> None:
        if os.getppid() != parent_pid:
            os._exit(3)          # orphaned: the parent is gone, nothing to serve

    state = SharedMemoryArena(payload["state"]["slots"],
                              name=payload["state"]["name"], create=False)
    io = SharedMemoryArena(payload["io"]["slots"],
                           name=payload["io"]["name"], create=False)
    ranks: List[int] = payload["ranks"]
    lo, hi = ranks[0], ranks[-1] + 1

    spec = get_model_spec(payload["model"], payload["preset"])
    replicas = [spec.build(seed=replica_init_seed(payload["seed"], rank))
                for rank in ranks]
    shard_world = WorldFlatBuffers(replicas,
                                   param_matrix=state["params"][lo:hi],
                                   grad_matrix=state["grads"][lo:hi],
                                   adopt_values=False)
    for rank, replica in zip(ranks, replicas):
        views = {name: state[_buffer_slot(rank, name)]
                 for name in payload["buffer_names"]}
        adopt_module_buffers(replica, views, adopt_values=False)
    executor = build_replica_executor(replicas, shard_world, spec.task)

    ctrl = state["ctrl"]
    losses = state["losses"]
    inputs = io["inputs"][lo:hi]
    targets = io["targets"][lo:hi]
    barrier = ShmBarrier(state["arrive"], index=payload["worker_index"])
    while True:
        barrier.wait(poll=check_parent)            # release
        if int(ctrl[0]) == CMD_SHUTDOWN:
            break
        losses[lo:hi] = executor.forward_backward(inputs, targets)
        barrier.wait(poll=check_parent)            # join
    state.close()
    io.close()


class _MultiprocessExecutor:
    """The parent-side executor: stage the batch, run the fork/join protocol.

    Drop-in for the in-process batched executors —
    ``forward_backward(inputs, targets) -> losses`` with the gradients landing
    in ``world.grad_matrix`` (which *is* the shared segment here).  Workers
    are spawned lazily on the first call, when the batch geometry is known;
    classification loaders run with ``drop_last=True`` so the shape is
    constant for the rest of the run.
    """

    def __init__(self, backend: "MultiprocessingBackend", *, model: str,
                 preset: str, seed: int):
        self.backend = backend
        self.model = model
        self.preset = preset
        self.seed = seed

    def forward_backward(self, inputs: np.ndarray, targets: np.ndarray) -> List[float]:
        backend = self.backend
        if backend._processes is None:
            backend._start_workers(self, inputs, targets)
        io = backend.io_arena
        if inputs.shape != io["inputs"].shape:
            raise ValueError(f"batch shape changed mid-run: staged "
                             f"{io['inputs'].shape}, got {inputs.shape}")
        barrier = backend._barrier
        if barrier.generation % 2:       # an aborted call's join is pending
            barrier.wait(poll=backend.check_workers, timeout=STEP_TIMEOUT_S)
        io["inputs"][...] = inputs
        io["targets"][...] = targets
        barrier.wait(poll=backend.check_workers)            # release workers
        barrier.wait(poll=backend.check_workers,            # join: shard grads
                     timeout=STEP_TIMEOUT_S)                # and losses ready
        return [float(x) for x in backend.arena["losses"]]


@EXECUTION_BACKENDS.register(
    "multiprocessing",
    description="long-lived worker processes over shared-memory flat buffers "
                "(bit-identical to inprocess; real cores)")
class MultiprocessingBackend(ExecutionBackend):
    """Rank shards as worker processes over shared ``(P, n)`` matrices."""

    name = "multiprocessing"

    def __init__(self, num_workers: Optional[int] = None,
                 start_method: Optional[str] = None):
        if num_workers is not None and (not isinstance(num_workers, int)
                                        or isinstance(num_workers, bool)
                                        or num_workers < 1):
            raise ValueError(f"num_workers must be an integer >= 1, "
                             f"got {num_workers!r}")
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            # fork shares the parent's loaded modules and MXCSR state and
            # starts in milliseconds; spawn is the portable fallback.
            start_method = "fork" if "fork" in available else "spawn"
        elif start_method not in available:
            raise ValueError(f"start_method must be one of {available}, "
                             f"got {start_method!r}")
        self.num_workers = num_workers
        self.start_method = start_method
        self.arena: Optional[SharedMemoryArena] = None
        self.io_arena: Optional[SharedMemoryArena] = None
        self._processes: Optional[List[Tuple[multiprocessing.Process, List[int]]]] = None
        self._barrier: Optional[ShmBarrier] = None
        self._buffer_names: List[str] = []
        self._world_size = 0
        self._owner_pid = os.getpid()
        self._closed = False

    # ------------------------------------------------------------------ #
    # compatibility (same pinned text in spec.validate and the trainer)
    # ------------------------------------------------------------------ #
    def compatibility_problems(self, features) -> List[str]:
        problems: List[str] = []
        task, world_size = features.task, features.world_size
        if features.is_async:
            problems.append(
                f"backend 'multiprocessing' cannot run sync strategy "
                f"{features.sync.strategy!r}: the event-driven virtual clock "
                f"executes one rank at a time; use backend 'inprocess'")
        if features.faults_active:
            problems.append(
                "backend 'multiprocessing' does not support fault injection; "
                "remove the \"faults\" section or use backend 'inprocess'")
        if task == "language_model":
            problems.append(
                "backend 'multiprocessing' does not support language models; "
                "use backend 'inprocess'")
        if (self.num_workers is not None and isinstance(world_size, int)
                and self.num_workers > world_size):
            problems.append(
                f"backend num_workers ({self.num_workers}) cannot exceed "
                f"world_size ({world_size})")
        return problems

    # ------------------------------------------------------------------ #
    # world + executor construction
    # ------------------------------------------------------------------ #
    def create_world(self, replicas: Sequence[Module]) -> WorldFlatBuffers:
        P = len(replicas)
        self._world_size = P
        self._num_workers = min(self.num_workers or P, P)
        layout = FlatLayout.from_model(replicas[0])
        n = layout.total_size
        buffer_specs = [(name, buf.shape, buf.dtype.str)
                        for name, buf in replicas[0].named_buffers()]
        self._buffer_names = [name for name, _, _ in buffer_specs]
        slots: Dict[str, Tuple[Tuple[int, ...], str]] = {
            "params": ((P, n), np.float32),
            "grads": ((P, n), np.float32),
            "losses": ((P,), np.float64),
            "ctrl": ((1,), np.int64),
            "arrive": ((self._num_workers + 1,), np.int64),
        }
        for rank in range(P):
            for name, shape, dtype in buffer_specs:
                slots[_buffer_slot(rank, name)] = (shape, dtype)
        self.arena = SharedMemoryArena(slots)
        world = WorldFlatBuffers(replicas,
                                 param_matrix=self.arena["params"],
                                 grad_matrix=self.arena["grads"])
        for rank, replica in enumerate(replicas):
            views = {name: self.arena[_buffer_slot(rank, name)]
                     for name in self._buffer_names}
            adopt_module_buffers(replica, views, adopt_values=True)
        atexit.register(self._atexit_close)
        return world

    def create_executor(self, trainer) -> _MultiprocessExecutor:
        # The workers build their executors after the fork; a model without
        # one must fail here, in the constructor, not as a dead worker.
        replica_executor_class(trainer.replicas[0], trainer.spec.task)
        return _MultiprocessExecutor(self, model=trainer.config.model,
                                     preset=trainer.config.preset,
                                     seed=trainer.config.seed)

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #
    def _start_workers(self, executor: _MultiprocessExecutor,
                       inputs: np.ndarray, targets: np.ndarray) -> None:
        self.io_arena = SharedMemoryArena({
            "inputs": (inputs.shape, inputs.dtype.str),
            "targets": (targets.shape, targets.dtype.str),
        })
        self._barrier = ShmBarrier(self.arena["arrive"],
                                   index=self._num_workers)
        context = multiprocessing.get_context(self.start_method)
        shards = np.array_split(np.arange(self._world_size), self._num_workers)
        self._processes = []
        for index, shard in enumerate(shards):
            ranks = [int(r) for r in shard]
            payload = {
                "worker_index": index,
                "ranks": ranks,
                "model": executor.model,
                "preset": executor.preset,
                "seed": executor.seed,
                "buffer_names": self._buffer_names,
                "state": {"name": self.arena.name, "slots": self.arena.slots},
                "io": {"name": self.io_arena.name, "slots": self.io_arena.slots},
                "parent_pid": os.getpid(),
            }
            process = context.Process(target=_worker_main, args=(payload,),
                                      daemon=True,
                                      name=f"repro-worker-{index}")
            process.start()
            self._processes.append((process, ranks))

    def check_workers(self) -> None:
        """Raise :class:`WorkerDiedError` naming any dead worker's ranks."""
        for index, (process, ranks) in enumerate(self._processes or []):
            if not process.is_alive():
                raise WorkerDiedError(
                    f"multiprocessing backend: worker {index} "
                    f"(ranks {ranks[0]}..{ranks[-1]}) died with exit code "
                    f"{process.exitcode}; the surviving parent reclaims the "
                    f"shared segments on close()")

    def close(self) -> None:
        """Shut workers down and unlink the shared segments (idempotent)."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        processes = self._processes or []
        if processes and all(p.is_alive() for p, _ in processes):
            # Workers read the command only right after a release, so each
            # one arrives at the next release and exits.  A step aborted
            # between its release and join leaves the parent on an odd
            # generation, its workers possibly still about to read RUN:
            # join that step before publishing the command.
            try:
                if self._barrier.generation % 2:
                    self._barrier.wait(timeout=2.0)
                self.arena["ctrl"][0] = CMD_SHUTDOWN
                self._barrier.wait(timeout=2.0)
            except BarrierTimeout:
                pass
            for process, _ in processes:
                process.join(timeout=2.0)
        for process, _ in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._processes = None
        if self.io_arena is not None:
            self.io_arena.close()
        if self.arena is not None:
            self.arena.close()
        atexit.unregister(self._atexit_close)

    def _atexit_close(self) -> None:
        if not self._closed:
            self.close()
