"""Compressed parameter exchange: delta coding against a shared reference.

The gradient compressors (:mod:`repro.compress`) were built for Algorithm
1's gradient phase, but the decentralized synchronization strategies
(``local_sgd`` with H > 1, ``gossip``) put *parameter vectors* on the wire —
historically as full float32 payloads.  :class:`ParameterDeltaCodec` closes
that gap by reusing any registered compressor for the parameter phase, the
way decentralized compressed-SGD systems (CHOCO-SGD-style quantized gossip)
do:

* every rank keeps a **reference** — the publicly reconstructible estimate
  of its parameters as of the last synchronization.  The *first* exchange
  is a one-time dense bootstrap (full float32 parameters, priced as such)
  that establishes the references, exactly like a worker joining a real
  deployment receives a dense snapshot before switching to deltas;
  afterwards references advance only through information that travelled on
  the wire, so any receiver can maintain them;
* at a sync point, rank ``p`` compresses the **delta** ``params_p - ref_p``
  with its own compressor instance.  The compressor's error-feedback
  residual (Top-K / QSGD / A2SGD all keep one) carries whatever the lossy
  encoding dropped into the next sync, so compression error is fed back
  rather than lost;
* receivers reconstruct ``ref_p + decompress(delta_p)`` — the estimate of
  rank ``p``'s parameters — aggregate the estimates, and advance every
  reference to the estimate it just reconstructed.

With the per-rank error feedback the estimates track the true parameters:
nothing is permanently lost, only deferred to a later sync.  The usual
error-feedback caveat applies: the compressor must be *contractive*
(``||v - C(v)|| < ||v||``), or the residual recursion amplifies instead of
draining.  Top-K, A2SGD and the sparsifiers are contractive by
construction; QSGD's unbiased quantization is only contractive when
``levels >= sqrt(bucket_size)`` (its per-bucket error bound is
``min(n/s², √n/s) · ||v||``), so quantized-parameter runs should raise
``levels`` / shrink ``bucket_size`` from the gradient-phase defaults —
e.g. ``{"levels": 16, "bucket_size": 64}``.

The in-process
simulation keeps all references in one ``(P, n)`` matrix; a real deployment
would hold one reference per *tracked peer* (its neighbours on the gossip
graph), updated from the same public payloads.  Context dicts are likewise
shared in-process; compressors whose reconstruction needs rank-local
context (A2SGD's sign mask) would ship that context alongside the payload
on a real fabric — ``wire_bits`` reports the compressor's analytic figure
either way.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.compress.base import (
    COMPRESSOR_STATE_KINDS,
    Compressor,
    compressor_state_arrays,
    restore_compressor_state,
)


class ParameterDeltaCodec:
    """Per-rank delta compression of parameter vectors against references.

    Parameters
    ----------
    compressors:
        One compressor instance per rank, dedicated to the parameter phase
        (never shared with the gradient-phase instances: error-feedback
        residuals are per stream).
    """

    def __init__(self, compressors: Sequence[Compressor]):
        if not compressors:
            raise ValueError("parameter codec needs at least one compressor")
        self.compressors: List[Compressor] = list(compressors)
        #: ``(P, n)`` matrix of per-rank references (estimate of each rank's
        #: parameters as of the last sync); lazily allocated at first use.
        self._references: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    @property
    def algorithm(self) -> str:
        """Registry name of the parameter-phase compression algorithm."""
        return self.compressors[0].name

    def wire_bits(self, n: int) -> float:
        """Analytic bits of one rank's compressed parameter-delta payload.

        The steady-state figure; the one-time dense bootstrap exchange
        costs ``32 n`` instead (see :meth:`encode`).
        """
        return self.compressors[0].wire_bits(n, len(self.compressors))

    @property
    def bootstrapped(self) -> bool:
        """Whether the one-time dense reference bootstrap has happened."""
        return self._references is not None

    # ------------------------------------------------------------------ #
    def encode(self, rows: Sequence[np.ndarray],
               ranks: Sequence[int] | None = None
               ) -> Tuple[List[np.ndarray], np.ndarray, float]:
        """Compress every participating rank's parameter vector as a delta.

        Returns ``(payloads, estimates, payload_bits)`` where ``payloads[i]``
        is what the ``i``-th participating rank puts on the wire,
        ``estimates[i] = ref + decompress(payloads[i])`` is the
        reconstruction every receiver of that payload obtains, and
        ``payload_bits`` is the analytic wire size of one payload.
        Compression runs through the compressor's ``compress_batch`` kernel;
        error-feedback residuals update on the per-rank instances as usual.

        ``ranks`` lists the participating ranks, ascending (the alive ranks
        of the world's membership; every rank when omitted): ``rows`` holds
        one row per listed rank, only those ranks' compressors and
        references participate, and the others' residuals/references stay
        frozen — a down worker does nothing.

        The very first exchange has no references to delta against, so it
        ships the **dense** parameter vectors (``payload_bits = 32 n``) and
        its estimates are exact — the bootstrap snapshot a worker joining a
        real deployment would receive.  References are NOT advanced here —
        call :meth:`advance` with the estimates once the exchange is done.
        """
        X = np.stack([np.asarray(row, dtype=np.float32) for row in rows])
        P, n = X.shape
        participants = self._participants(ranks)
        if P != len(participants):
            raise ValueError(f"expected {len(participants)} parameter rows, got {P}")
        if self._references is None:
            return list(X), X, 32.0 * n
        references = self._references[participants]
        compressors = [self.compressors[r] for r in participants]
        deltas = X - references
        batch = type(compressors[0])
        payloads, contexts = batch.compress_batch(compressors, deltas)
        estimates = references + self.decode_deltas(payloads, contexts,
                                                    ranks=participants)
        return payloads, estimates, self.wire_bits(n)

    def _participants(self, ranks: Sequence[int] | None) -> List[int]:
        """The participating ranks as a list: ``ranks``, or every rank."""
        if ranks is None:
            return list(range(len(self.compressors)))
        return [int(r) for r in ranks]

    def decode_deltas(self, payloads: Sequence[np.ndarray],
                      contexts: Sequence[Dict],
                      ranks: Sequence[int] | None = None) -> np.ndarray:
        """Reconstruct every participating rank's delta from its payload.

        One payload decodes exactly one rank's delta, and the compressor
        family decodes every participant in one ``decompress_each`` call: an
        allreduce-kind payload decompressed directly, an allgather-kind one
        as the mean of a gathered list of one.
        """
        compressors = [self.compressors[r] for r in self._participants(ranks)]
        return type(compressors[0]).decompress_each(compressors, payloads, contexts)

    def advance(self, estimates: np.ndarray,
                ranks: Sequence[int] | None = None) -> None:
        """Advance participating references to the estimates reconstructed.

        Estimates are a deterministic function of the previous references
        and the public payloads, so senders and receivers stay in lockstep.
        Only the participating ranks' rows move (``ranks`` as in
        :meth:`encode`); the first (bootstrap) exchange allocates the
        reference matrix with zero rows for absent ranks — they receive a
        dense re-sync at rejoin (:meth:`resync_rank`) before ever
        delta-coding again.
        """
        estimates = np.asarray(estimates, dtype=np.float32)
        if self._references is None:
            self._references = np.zeros(
                (len(self.compressors), estimates.shape[1]), dtype=np.float32)
        self._references[self._participants(ranks)] = estimates

    def resync_rank(self, rank: int, row: np.ndarray) -> None:
        """Dense re-sync of one rank's codec state (rejoin catch-up).

        The rejoining rank's parameters were just replaced wholesale, so its
        old reference and any error-feedback residual describe a vector that
        no longer exists: the reference snaps to the freshly served row (the
        dense payload is public, so receivers advance identically) and the
        rank's compressor state is cleared.
        """
        row = np.asarray(row, dtype=np.float32).reshape(-1)
        if self._references is not None:
            self._references[int(rank)] = row
        self.compressors[int(rank)].reset_state()

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Resume state: the reference matrix + per-rank compressor state."""
        state: Dict[str, np.ndarray] = {}
        if self._references is not None:
            state["references"] = self._references
        for rank, compressor in enumerate(self.compressors):
            for kind, value in compressor_state_arrays(compressor).items():
                state[f"{kind}_{rank}"] = value
        return state

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_arrays` (missing keys leave state as-is)."""
        if "references" in arrays:
            self._references = np.array(arrays["references"], dtype=np.float32,
                                        copy=True)
        for rank, compressor in enumerate(self.compressors):
            restore_compressor_state(compressor, {
                kind: arrays[f"{kind}_{rank}"]
                for kind in COMPRESSOR_STATE_KINDS
                if f"{kind}_{rank}" in arrays})

    def reset(self) -> None:
        """Drop references and every compressor's persistent state."""
        self._references = None
        for compressor in self.compressors:
            compressor.reset_state()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        bound = "unbound" if self._references is None \
            else f"refs={self._references.shape}"
        return f"ParameterDeltaCodec({self.algorithm!r}, {bound})"
