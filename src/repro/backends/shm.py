"""Shared-memory primitives for the multiprocessing execution backend.

Three layers, each usable on its own:

* :class:`SharedMemoryArena` — one named ``multiprocessing.shared_memory``
  segment carved into typed numpy slots.  The creating process owns the
  segment (context-manager ``unlink`` plus a pid-guarded ``atexit`` fallback,
  so ``/dev/shm`` is clean even after a mid-run exception); attaching
  processes immediately deregister from the ``resource_tracker`` so a worker
  exit can never unlink a segment the parent still needs.
* :class:`ShmBarrier` — a generation-counting barrier over an int64 slot of
  an arena.  Every participant owns exactly one cell (single-writer, so the
  protocol needs no locks on a cache-coherent host); ``wait`` spins briefly,
  then yields, and periodically invokes a ``poll`` callback so the parent can
  detect a dead worker instead of spinning forever.
* :class:`ShmCommunicator` — a second implementation of the
  :class:`repro.comm.backend.Communicator` interface (the first is the
  simulated :class:`~repro.comm.inprocess.InProcessWorld`): collectives for
  *real* processes that coordinate through shared staging rows with the
  barrier's sequence numbers.  ``allreduce`` gathers every rank's payload and
  reduces locally with :meth:`CollectiveOp.combine`, so all ranks compute the
  bit-identical result in the same order.

The training hot path never pickles: parameters, gradients, batch inputs and
losses all live in arena slots that both sides view in place.
"""

from __future__ import annotations

import atexit
import os
import secrets
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.comm.backend import CollectiveOp, Communicator

#: Slot alignment in bytes (one cache line, so single-writer int64 cells of
#: adjacent participants never share a line with payload data).
_ALIGN = 64

#: Name prefix of every segment this module creates; the lifecycle tests
#: enumerate ``/dev/shm`` for it to prove nothing leaks.
SEGMENT_PREFIX = "repro_mp_"


class BarrierTimeout(RuntimeError):
    """A barrier participant did not arrive within the timeout."""


def _slot_spec(shape: Sequence[int], dtype) -> Tuple[Tuple[int, ...], str]:
    """Normalize a slot declaration to ``(shape tuple, dtype string)``."""
    return tuple(int(s) for s in shape), np.dtype(dtype).str


class SharedMemoryArena:
    """One shared-memory segment carved into named, typed numpy slots.

    Parameters
    ----------
    slots:
        ``{name: (shape, dtype)}`` declarations.  The same mapping must be
        passed on attach (ship it to workers once, at spawn — it is the only
        pickled metadata; the arrays themselves are never serialized).
    name:
        Segment name to attach to; ``None`` creates a fresh segment.
    create:
        ``True`` creates (and owns) the segment; ``False`` attaches to an
        existing one and immediately deregisters it from this process's
        ``resource_tracker`` so our exit cannot unlink the owner's segment.
    """

    def __init__(self, slots: Mapping[str, Tuple[Sequence[int], object]], *,
                 name: Optional[str] = None, create: bool = True):
        self.slots: Dict[str, Tuple[Tuple[int, ...], str]] = {
            key: _slot_spec(shape, dtype) for key, (shape, dtype) in slots.items()}
        self._offsets: Dict[str, int] = {}
        offset = 0
        for key, (shape, dtype) in self.slots.items():
            self._offsets[key] = offset
            nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
            offset += (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        self.nbytes = max(offset, _ALIGN)
        self.owner = bool(create)
        self._owner_pid = os.getpid() if create else None
        self._closed = False
        if create:
            name = name or f"{SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
            self._shm = shared_memory.SharedMemory(name=name, create=True,
                                                   size=self.nbytes)
            # POSIX shm segments outlive their creator until unlinked: if the
            # owner dies without reaching close() (mid-run exception, ^C),
            # this fallback reclaims /dev/shm.  Pid-guarded so a forked child
            # that *does* run atexit handlers cannot unlink the parent's
            # segment.
            atexit.register(self._atexit_unlink)
        else:
            self._shm = shared_memory.SharedMemory(name=name)
        # Opt out of resource_tracker accounting on both sides (Python < 3.13
        # has no track=False).  The arena owns the lifecycle: explicit close()
        # plus the pid-guarded atexit fallback.  Without this, (a) a *spawned*
        # worker's private tracker unlinks the segment out from under the
        # parent when the worker exits, and (b) under fork — one tracker
        # shared by the whole family — the eventual unlink()'s UNREGISTER
        # hits a cache our attach-side opt-out already emptied, making the
        # tracker print KeyError tracebacks.  close() re-registers just
        # before unlinking so every register/unregister pairs up.
        try:
            resource_tracker.unregister(self._shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker not running
            pass
        self.name = self._shm.name
        self._views: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    def __getitem__(self, key: str) -> np.ndarray:
        """The live numpy view of slot ``key`` (zero-copy, shared)."""
        view = self._views.get(key)
        if view is None:
            shape, dtype = self.slots[key]
            count = int(np.prod(shape, dtype=np.int64))
            view = np.frombuffer(self._shm.buf, dtype=np.dtype(dtype),
                                 count=count, offset=self._offsets[key]
                                 ).reshape(shape)
            self._views[key] = view
        return view

    def __contains__(self, key: str) -> bool:
        return key in self.slots

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release this process's handle; the owner also unlinks the name.

        Live numpy views (e.g. adopted ``Parameter.data``) may still alias
        the mapping, in which case the pages stay mapped until the process
        exits — but the ``/dev/shm`` entry is removed immediately, which is
        the resource that must not leak.
        """
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        try:
            self._shm.close()
        except BufferError:
            # Adopted views (e.g. re-pointed Parameter.data) still alias the
            # buffer; the mapping lives until the process exits, which is
            # fine — the /dev/shm name is unlinked below regardless.  Detach
            # the mmap handle and close the fd ourselves so SharedMemory's
            # __del__ does not retry close() and spray unraisable
            # BufferErrors at interpreter shutdown.
            self._shm._mmap = None
            if self._shm._fd >= 0:
                try:
                    os.close(self._shm._fd)
                except OSError:  # pragma: no cover - already closed
                    pass
                self._shm._fd = -1
        if self.owner and os.getpid() == self._owner_pid:
            try:
                # Balance the unlink()'s UNREGISTER (we opted out at create).
                resource_tracker.register(self._shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker not running
                pass
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            atexit.unregister(self._atexit_unlink)

    def _atexit_unlink(self) -> None:
        if not self._closed and os.getpid() == self._owner_pid:
            self.close()

    def __enter__(self) -> "SharedMemoryArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def leaked_segments() -> List[str]:
    """Names of live ``/dev/shm`` segments created by this module.

    The lifecycle tests assert this is empty after clean exits, mid-run
    exceptions and SIGKILLed workers.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux hosts
        return []
    return sorted(entry for entry in os.listdir(shm_dir)
                  if entry.startswith(SEGMENT_PREFIX))


class ShmBarrier:
    """Generation-counting barrier over one int64 arena slot.

    Cell ``index`` is written only by participant ``index`` (its arrival
    generation); a participant has passed generation ``g`` once every cell
    is ``>= g``.  Consecutive ``wait`` calls therefore implement an
    alternating-phase fork/join with no reset step and no locks.
    """

    def __init__(self, arrive: np.ndarray, index: int):
        if arrive.dtype != np.int64 or arrive.ndim != 1:
            raise ValueError("barrier slot must be a 1-D int64 array")
        self.arrive = arrive
        self.index = int(index)
        self.parties = int(arrive.shape[0])

    @property
    def generation(self) -> int:
        """The last generation this participant arrived at."""
        return int(self.arrive[self.index])

    def wait(self, timeout: Optional[float] = None,
             poll: Optional[Callable[[], None]] = None) -> int:
        """Arrive and block until every participant reaches this generation.

        ``poll`` runs periodically while blocked (the parent checks worker
        liveness there; workers check for an orphaned parent) and may raise
        to abort the wait.  Returns the generation number passed.
        """
        generation = self.generation + 1
        self.arrive[self.index] = generation
        deadline = None if timeout is None else time.monotonic() + timeout
        spins = 0
        while int(self.arrive.min()) < generation:
            spins += 1
            if spins < 200:        # fast path: everyone is already here
                continue
            # Yield the core (essential when participants oversubscribe the
            # CPUs), then back off to a short sleep.
            time.sleep(0.0 if spins < 2000 else 0.0002)
            if poll is not None and spins % 256 == 0:
                poll()
            if deadline is not None and time.monotonic() > deadline:
                raise BarrierTimeout(
                    f"barrier participant {self.index} timed out at generation "
                    f"{generation} ({timeout:.1f}s); arrivals: "
                    f"{self.arrive.tolist()}")
        return generation


#: Wire dtypes the communicator can stage, by header code.
_COMM_DTYPES = [np.dtype(np.float32), np.dtype(np.float64),
                np.dtype(np.int64), np.dtype(np.int32),
                np.dtype(np.uint8), np.dtype(np.bool_)]
_COMM_HEADER = 12          # int64s: dtype code, ndim, shape[0..9]
_MAX_NDIM = _COMM_HEADER - 2


def communicator_slots(world_size: int, capacity_bytes: int,
                       prefix: str = "comm") -> Dict[str, Tuple[Tuple[int, ...], str]]:
    """Arena slot declarations for a :class:`ShmCommunicator` world."""
    return {
        f"{prefix}:arrive": ((world_size,), np.int64),
        f"{prefix}:header": ((world_size, _COMM_HEADER), np.int64),
        f"{prefix}:data": ((world_size, int(capacity_bytes)), np.uint8),
    }


class ShmCommunicator(Communicator):
    """Collectives over shared staging rows — one per real process.

    The second :class:`~repro.comm.backend.Communicator` implementation:
    where :class:`~repro.comm.inprocess.InProcessWorld` simulates a priced
    fabric inside one process, this one coordinates genuinely concurrent
    processes through a :class:`SharedMemoryArena`.  Every collective is a
    publish → barrier → read → barrier sequence over per-rank staging rows
    (sequence numbers are the barrier generations), so no payload is ever
    pickled or sent through a pipe.
    """

    def __init__(self, arena: SharedMemoryArena, rank: int, world_size: int,
                 prefix: str = "comm",
                 poll: Optional[Callable[[], None]] = None,
                 timeout: Optional[float] = None):
        self._rank = int(rank)
        self._world_size = int(world_size)
        self._header = arena[f"{prefix}:header"]
        self._data = arena[f"{prefix}:data"]
        self._barrier = ShmBarrier(arena[f"{prefix}:arrive"], self._rank)
        self._poll = poll
        self._timeout = timeout

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def world_size(self) -> int:
        return self._world_size

    # ------------------------------------------------------------------ #
    def _publish(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        try:
            code = _COMM_DTYPES.index(array.dtype)
        except ValueError:
            raise TypeError(f"unsupported dtype {array.dtype} for shared-memory "
                            f"collectives; supported: "
                            f"{[str(d) for d in _COMM_DTYPES]}") from None
        if array.ndim > _MAX_NDIM:
            raise ValueError(f"arrays of ndim > {_MAX_NDIM} are not supported")
        if array.nbytes > self._data.shape[1]:
            raise ValueError(f"payload of {array.nbytes} B exceeds the staging "
                             f"capacity of {self._data.shape[1]} B per rank")
        header = self._header[self._rank]
        header[0] = code
        header[1] = array.ndim
        header[2:2 + array.ndim] = array.shape
        self._data[self._rank, :array.nbytes] = array.reshape(-1).view(np.uint8)

    def _read(self, rank: int) -> np.ndarray:
        header = self._header[rank]
        dtype = _COMM_DTYPES[int(header[0])]
        shape = tuple(int(s) for s in header[2:2 + int(header[1])])
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        flat = self._data[rank, :nbytes].copy().view(dtype)
        return flat.reshape(shape)

    def _sync(self) -> None:
        self._barrier.wait(timeout=self._timeout, poll=self._poll)

    # ------------------------------------------------------------------ #
    def barrier(self) -> None:
        self._sync()

    def allgather(self, array: np.ndarray) -> List[np.ndarray]:
        self._publish(array)
        self._sync()                                 # all payloads published
        results = [self._read(rank) for rank in range(self._world_size)]
        self._sync()                                 # all reads done; rows free
        return results

    def allreduce(self, array: np.ndarray,
                  op: CollectiveOp = CollectiveOp.MEAN) -> np.ndarray:
        # Gather-then-combine: every rank folds the same stack in the same
        # order, so the reduction is bit-identical across ranks.
        return op.combine(self.allgather(array))

    def broadcast(self, array: np.ndarray, root: int = 0) -> np.ndarray:
        if self._rank == root:
            self._publish(array)
        self._sync()                                 # root's payload published
        result = self._read(root)
        self._sync()                                 # all reads done
        return result
