"""Execution backends: pluggable homes for the forward/backward passes.

Importing this package registers every built-in backend with
:data:`EXECUTION_BACKENDS` (the 12th public component registry):

* ``inprocess`` — the single-process batched executors; the reference
  semantics.
* ``multiprocessing`` — long-lived worker processes over
  ``multiprocessing.shared_memory`` flat buffers, bit-identical to
  ``inprocess`` while using real cores.

The shared-memory substrate (:class:`SharedMemoryArena`, :class:`ShmBarrier`,
:class:`ShmCommunicator`) lives in :mod:`repro.backends.shm` and is usable on
its own — ``ShmCommunicator`` is the second implementation of the
:class:`repro.comm.backend.Communicator` interface.
"""

from repro.backends.base import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    InProcessBackend,
    resolve_backend,
)
from repro.backends.multiprocess import MultiprocessingBackend, WorkerDiedError
from repro.backends.shm import (
    BarrierTimeout,
    SharedMemoryArena,
    ShmBarrier,
    ShmCommunicator,
    communicator_slots,
    leaked_segments,
)

__all__ = [
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "InProcessBackend",
    "MultiprocessingBackend",
    "WorkerDiedError",
    "resolve_backend",
    "BarrierTimeout",
    "SharedMemoryArena",
    "ShmBarrier",
    "ShmCommunicator",
    "communicator_slots",
    "leaked_segments",
]
