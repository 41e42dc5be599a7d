"""The oracle the ring allreduce is checked against.

``allreduce_naive`` reduces every contribution centrally with
:meth:`CollectiveOp.combine` and copies the result to every rank — no chunk
plan, no ring order — so ``allreduce_ring``'s chunked fold can be compared
with a reduction that shares none of its machinery.  No ``src/`` path runs
it.
"""

from typing import List, Sequence

import numpy as np

from repro.comm.backend import CollectiveOp
from repro.comm.collectives import CollectiveTrace, _as_float_arrays


def allreduce_naive(buffers: Sequence[np.ndarray],
                    op: CollectiveOp = CollectiveOp.MEAN) -> tuple[List[np.ndarray], CollectiveTrace]:
    """Reference allreduce: reduce centrally then copy to every rank.

    Exists to cross-check the ring implementation in tests; its trace models a
    gather+broadcast star, which is how a naive parameter server would behave.
    """
    arrays = _as_float_arrays(buffers)
    p = len(arrays)
    result = op.combine(arrays)
    nbytes = float(arrays[0].nbytes)
    trace = CollectiveTrace(kind="broadcast", message_bytes=nbytes,
                            bytes_sent_per_rank=nbytes, rounds=2 * max(0, p - 1),
                            world_size=p)
    return [result.copy() for _ in range(p)], trace
