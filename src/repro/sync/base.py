"""The SyncStrategy protocol: *when and what* ranks exchange.

The paper's Algorithm 1 is one point in a large design space — synchronous
gradient allreduce with mean aggregation.  A :class:`SyncStrategy` makes
that point swappable: the trainer asks the strategy to synchronize each
iteration's gradients (:meth:`~SyncStrategy.exchange_batched`), offers it a
post-optimizer-step hook for parameter exchanges
(:meth:`~SyncStrategy.post_step`), and lets it perform the final replica
consolidation (:meth:`~SyncStrategy.finalize`).
Strategies compose with an :class:`~repro.sync.aggregators.Aggregator`
(*how* payloads combine) and, for gossip, a
:class:`~repro.comm.topology.CommTopology` (*who* talks to whom).

The trainer calls ``exchange_batched`` with the flat ``(P, n)`` gradient
matrix and hands ``post_step`` the rows of the flat parameter matrix.  The
default ``allreduce`` strategy with the ``mean`` aggregator is the paper's
Algorithm 1.

Byzantine scenarios plug in through :class:`GradientCorruption`: the
corruption poisons whatever the strategy puts on the wire — gradient-phase
strategies flip (or scale) the selected ranks' local gradients before any
compression or exchange, while parameter-phase strategies (local SGD with
H > 1, gossip) corrupt the *staged parameter payload* so the poison reaches
neighbours through the aggregator, never through the rank's own local
update.  Robust aggregators bound the damage; the plain mean does not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.inprocess import InProcessWorld
from repro.comm.topology import CommTopology
from repro.compress.base import Compressor, ExchangeKind
from repro.compress.param_delta import ParameterDeltaCodec
from repro.core.cost_model import DEFAULT_COMPRESSION_MODEL
from repro.core.timeline import SyncReport
from repro.registry import Registry
from repro.sync.aggregators import Aggregator

if TYPE_CHECKING:
    from repro.core.features import RunFeatures

#: Registry of synchronization strategies constructible by name (spec / CLI).
SYNC_STRATEGIES = Registry("sync strategy", expose="sync-strategies")

#: Corruption kinds understood by :class:`GradientCorruption`.
CORRUPTION_KINDS = ("sign_flip", "scale")


def validate_compressors(world: InProcessWorld, compressors: Sequence[Compressor]) -> None:
    """Shared rank/compressor sanity checks (same messages as the seed)."""
    if len(compressors) != world.world_size:
        raise ValueError(f"need one compressor per rank: "
                         f"{len(compressors)} given for world size {world.world_size}")
    kinds = {type(c) for c in compressors}
    if len(kinds) != 1:
        raise ValueError("all ranks must use the same compression algorithm")
    if len(set(map(id, compressors))) != len(compressors):
        raise ValueError("compressor instances must not be shared across ranks")


class GradientCorruption:
    """Byzantine corruption of selected ranks' wire contributions.

    ``sign_flip`` negates the rank's payload (a worker pushing training
    backwards); ``scale`` multiplies it by ``scale`` (a worker shouting
    ``scale`` times louder than everyone else).  Corruption happens before
    compression/exchange, so it poisons whatever the strategy puts on the
    wire — exactly the threat model robust aggregators defend against.
    Gradient-phase strategies corrupt the local gradients in place
    (:meth:`apply_rows`);
    parameter-phase strategies corrupt *staged copies* of the parameter
    payloads (:meth:`staged`) so a Byzantine rank's poison travels to its
    neighbours without rewriting the rank's own local state.
    """

    def __init__(self, ranks: Sequence[int], kind: str = "sign_flip",
                 scale: float = 10.0):
        if kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {kind!r}; "
                             f"expected one of {list(CORRUPTION_KINDS)}")
        self.ranks: Tuple[int, ...] = tuple(sorted({int(r) for r in ranks}))
        if any(r < 0 for r in self.ranks):
            raise ValueError(f"corrupt_ranks must be non-negative, got {list(self.ranks)}")
        self.kind = kind
        self.scale = float(scale)

    def validate_world(self, world_size: int) -> None:
        out_of_range = [r for r in self.ranks if r >= world_size]
        if out_of_range:
            raise ValueError(f"corrupt_ranks {out_of_range} out of range for "
                             f"world size {world_size}")

    def _factor(self) -> float:
        return -1.0 if self.kind == "sign_flip" else self.scale

    def apply_rows(self, G: np.ndarray) -> np.ndarray:
        """Corrupt the selected rows of a stacked ``(P, n)`` matrix in place."""
        factor = G.dtype.type(self._factor())
        for rank in self.ranks:
            np.multiply(G[rank], factor, out=G[rank])
        return G

    def apply_vector(self, rank: int, vector: np.ndarray) -> np.ndarray:
        """Corrupt one rank's vector in place (no-op for honest ranks).

        Event-driven strategies process one rank per event, so they corrupt
        per-vector instead of per-stacked-matrix.
        """
        if rank in self.ranks:
            np.multiply(vector, vector.dtype.type(self._factor()), out=vector)
        return vector

    def staged(self, vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Corrupted *copies* of the selected ranks' vectors, rest untouched.

        Used by the parameter phase: the returned list is what goes on the
        wire, while the caller's vectors (the ranks' live parameters) stay
        clean — a Byzantine worker lies to the network, it does not corrupt
        its own optimizer state.
        """
        staged = list(vectors)
        for rank in self.ranks:
            vector = np.asarray(staged[rank])
            staged[rank] = vector * vector.dtype.type(self._factor())
        return staged

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"GradientCorruption(ranks={list(self.ranks)}, kind={self.kind!r}, "
                f"scale={self.scale})")


def merge_reports(gradient: SyncReport, parameter: Optional[SyncReport]) -> SyncReport:
    """Fold a parameter-exchange report into the iteration's gradient report."""
    if parameter is None:
        return gradient
    return SyncReport(
        compression_time_s=gradient.compression_time_s + parameter.compression_time_s,
        comm_time_s=gradient.comm_time_s + parameter.comm_time_s,
        wire_bits_per_worker=gradient.wire_bits_per_worker + parameter.wire_bits_per_worker,
        exchange=f"{gradient.exchange}+{parameter.exchange}",
        aggregation_time_s=gradient.aggregation_time_s + parameter.aggregation_time_s,
    )


class SyncStrategy:
    """Base class for synchronization strategies.

    A strategy is constructed bare (so registries can ``create`` it by name)
    and then :meth:`bind`-ed once to a world, the per-rank compressors, an
    aggregator and optional topology/period/corruption.  Subclasses override
    the exchange/post-step/finalize hooks; every hook has a sensible
    pass-through default so a minimal custom strategy only implements what
    it changes.
    """

    name: str = "base"
    #: Whether :meth:`bind` requires a communication topology.
    needs_topology: bool = False
    #: Whether the strategy can *optionally* use a topology: ``bind`` accepts
    #: one but runs fine without (fedavg prices its averaging over a
    #: hierarchical tree when given one, flat otherwise).
    optional_topology: bool = False
    #: Whether the strategy reads the local-SGD ``period`` knob.
    uses_period: bool = False
    #: Whether the strategy is event-driven: the simulator then steps on its
    #: :class:`repro.sim.engine.EventSchedule` (which calls ``worker_step``
    #: per completion event) instead of the barrier schedule's
    #: ``exchange_batched``.  See :mod:`repro.sync.async_strategies`.
    is_async: bool = False

    @classmethod
    def exchanges_gradients(cls, period: int = 1) -> bool:
        """Whether this strategy puts *gradients* on the wire.

        Consulted by :meth:`compatibility_problems` for the aggregator ×
        compressor rule, so registered third-party strategies carry their
        own capability instead of validation hardcoding names.  The lenient
        default (False) never rejects a custom strategy for a combination
        it can run.
        """
        return False

    @classmethod
    def exchanges_parameters(cls, period: int = 1) -> bool:
        """Whether this strategy puts *parameter* payloads on the wire.

        Consulted by :meth:`compatibility_problems` to decide whether
        ``parameter_compression`` applies: only parameter-phase strategies
        (local SGD with H > 1, gossip) stage parameter payloads a
        :class:`~repro.compress.param_delta.ParameterDeltaCodec` can
        compress.  Custom strategies that implement :meth:`post_step`
        opt in by overriding this.
        """
        return False

    @classmethod
    def binds(cls, topology: type) -> bool:
        """Whether :meth:`bind` is handed this topology class.

        Always when one is required; when optional only a non-default one —
        the ``SyncSpec.topology`` default ``"ring"`` means "flat" there.
        """
        return cls.needs_topology or (cls.optional_topology
                                      and topology.name != "ring")

    @classmethod
    def compatibility_problems(cls, features: "RunFeatures") -> List[str]:
        """The cross-feature rules this strategy owns, one message per breach.

        The single statement of each rule: :meth:`SyncSpec.problems` lists
        these (so ``ExperimentSpec.validate()`` and the trainer constructor
        do), and :meth:`bind` raises the first.  ``features`` is the
        :class:`~repro.core.features.RunFeatures` record; a rule whose
        inputs are unknown there (``None``: unregistered names, reported by
        their own checks) is skipped.  Subclasses extend the inherited list.
        """
        problems: List[str] = []
        aggregator, compressor = features.aggregator, features.compressor
        codec = features.parameter_compressor
        if codec is not None and not cls.exchanges_parameters(features.period):
            problems.append(
                f"parameter_compression={codec.name!r} only applies to "
                f"parameter-phase strategies (local_sgd with period > 1, "
                f"gossip); strategy {cls.name!r} with period={features.period} "
                f"never exchanges parameters")
        # Robust aggregators need per-rank payloads, which allgather-kind
        # compressors cannot provide on the gradient exchange (their
        # reconstruction bakes in the mean).
        if (cls.exchanges_gradients(features.period)
                and aggregator is not None and aggregator.collective_op is None
                and compressor is not None
                and compressor.exchange is not ExchangeKind.ALLREDUCE):
            problems.append(
                f"aggregator {aggregator.name!r} needs per-rank payloads, but "
                f"compressor {compressor.name!r} uses an allgather exchange; robust "
                f"aggregators support allreduce-kind compressors only "
                f"(dense, a2sgd) — or use strategy local_sgd with period > 1 / "
                f"gossip, which aggregate parameters instead")
        return problems

    def __init__(self) -> None:
        self.world: Optional[InProcessWorld] = None
        self.compressors: List[Compressor] = []
        self.aggregator: Optional[Aggregator] = None
        self.topology: Optional[CommTopology] = None
        self.period: int = 1
        self.corruption: Optional[GradientCorruption] = None
        #: Delta codec for the parameter phase, or None for dense float32
        #: parameter payloads (the pre-compression behaviour, bit for bit).
        self.parameter_codec: Optional[ParameterDeltaCodec] = None
        #: Number of completed gradient exchanges (one per iteration).
        self._step: int = 0

    # ------------------------------------------------------------------ #
    # binding
    # ------------------------------------------------------------------ #
    def bind(self, world: InProcessWorld, compressors: Sequence[Compressor],
             aggregator: Aggregator, *, topology: Optional[CommTopology] = None,
             period: int = 1, corruption: Optional[GradientCorruption] = None,
             parameter_compressors: Optional[Sequence[Compressor]] = None
             ) -> "SyncStrategy":
        """Attach the strategy to a world; returns ``self`` for chaining.

        ``parameter_compressors`` (one instance per rank, never shared with
        the gradient-phase ``compressors``) enables compressed parameter
        exchange: the strategy's parameter phase then ships compressed
        deltas against per-rank references instead of dense float32 vectors.
        Only parameter-phase strategies accept it.
        """
        validate_compressors(world, compressors)
        if period < 1:
            raise ValueError(f"sync period must be >= 1, got {period}")
        if self.needs_topology and topology is None:
            raise ValueError(f"sync strategy {self.name!r} requires a topology "
                             f"(e.g. ring, star, fully_connected)")
        if topology is not None:
            topology.validate(world.world_size)
        if corruption is not None:
            corruption.validate_world(world.world_size)
        if parameter_compressors is not None:
            validate_compressors(world, parameter_compressors)
        # Deferred: core.features imports this package.
        from repro.core.features import RunFeatures
        problems = self.compatibility_problems(RunFeatures(
            aggregator=type(aggregator), compressor=type(compressors[0]),
            topology=None if topology is None else type(topology), period=period,
            parameter_compressor=None if parameter_compressors is None
            else type(parameter_compressors[0])))
        if problems:
            raise ValueError(problems[0])
        self.world = world
        self.compressors = list(compressors)
        self.aggregator = aggregator
        self.topology = topology
        self.period = int(period)
        self.corruption = corruption
        self.parameter_codec = (ParameterDeltaCodec(parameter_compressors)
                                if parameter_compressors is not None else None)
        self._step = 0
        return self

    @property
    def algorithm(self) -> str:
        """Registry name of the bound compression algorithm."""
        return self.compressors[0].name

    def wire_bits_per_iteration(self, n: int, world_size: int) -> float:
        """Analytic average bits per worker per iteration under this strategy.

        The compressor's Table-2 figure only describes the *gradient*
        exchange; strategies that exchange parameters instead (local SGD,
        gossip) report their own — amortized — traffic so sweeps comparing
        synchronization setups do not show the compressor's constant.  The
        base default (0.0) matches a strategy that exchanges nothing.
        """
        return 0.0

    @property
    def syncs_parameters(self) -> bool:
        """Whether :meth:`post_step` may *ever* exchange parameters.

        Static capability metadata (delegates to the class-level
        :meth:`exchanges_parameters` with the bound period); the
        per-iteration gate the trainer consults is :meth:`post_step_pending`.
        """
        return type(self).exchanges_parameters(self.period)

    # ------------------------------------------------------------------ #
    # gradient phase (Algorithm 1 lines 3-6, or a strategy's replacement)
    # ------------------------------------------------------------------ #
    def exchange_batched(self, G: np.ndarray) -> Tuple[np.ndarray, SyncReport]:
        """Synchronize one iteration's stacked ``(P, n)`` gradient matrix."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # parameter phase (after the optimizer step)
    # ------------------------------------------------------------------ #
    def post_step_pending(self) -> bool:
        """Whether the iteration just exchanged will also sync parameters.

        Queried by the trainer *after* the gradient exchange and *before*
        handing over the parameter rows, so strategies whose current
        iteration is a pure local step (local SGD between sync points, or
        any gradient-only strategy) cost one method call.
        """
        return False

    def post_step(self, param_rows: Sequence[np.ndarray]) -> Optional[SyncReport]:
        """Optionally exchange parameters after the optimizer step.

        ``param_rows[p]`` is rank ``p``'s flat parameter vector, a live view
        of the ``(P, n)`` parameter matrix.  Mutate the rows in place and
        return a report, or return None when this iteration has no
        parameter exchange.
        """
        return None

    # ------------------------------------------------------------------ #
    # final consolidation (Algorithm 1 lines 9-10)
    # ------------------------------------------------------------------ #
    def finalize(self, parameter_vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
        """One dense parameter consolidation at the end of training.

        The default — one global aggregation through the bound aggregator —
        is what every built-in strategy wants; override for a strategy with
        different end-of-training semantics.
        """
        return self._aggregate_global(list(parameter_vectors))[0]

    # ------------------------------------------------------------------ #
    # evaluation support
    # ------------------------------------------------------------------ #
    def consensus_vector(self) -> Optional[np.ndarray]:
        """The strategy's own notion of the consensus model, if it has one.

        ``None`` (the default) means "average the replicas" — the seed
        semantics.  A parameter server returns its server parameters, EASGD
        its center variable; the trainer consults this before evaluating.
        """
        return None

    # ------------------------------------------------------------------ #
    # fault tolerance
    # ------------------------------------------------------------------ #
    def catch_up(self, rank: int) -> Optional[np.ndarray]:
        """Dense state to serve a rejoining rank (rejoin catch-up).

        ``None`` (the default, via :meth:`consensus_vector`) tells the
        caller to fall back to the survivors' mean.  Strategies with their
        own consensus state override this to also refresh the rank's
        protocol state — a parameter server serves a fresh pull, EASGD
        re-centers the worker.
        """
        return self.consensus_vector()

    # ------------------------------------------------------------------ #
    # resume support
    # ------------------------------------------------------------------ #
    def restore(self, global_iteration: int) -> None:
        """Align the strategy's schedule with a restored iteration count.

        Called by :func:`repro.core.checkpoint.load_checkpoint` so periodic
        schedules (local-SGD's every-H sync) resume in phase.  The base
        implementation sets the exchange counter; strategies with extra
        schedule state override and call ``super().restore(...)``.
        """
        self._step = int(global_iteration)

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def _passthrough_report(self) -> SyncReport:
        """Report for an iteration that touched no wire."""
        return SyncReport(compression_time_s=0.0, comm_time_s=0.0,
                          wire_bits_per_worker=0.0, exchange="local")

    def _validated_gradient_matrix(self, G: np.ndarray) -> np.ndarray:
        """Validate the stacked ``(P, n)`` matrix.

        Runs *before* the strategy advances its step counter: a rejected
        call must leave the step phase untouched, or every subsequent
        ``post_step_pending`` / period computation would be off by one.
        """
        M = np.asarray(G)
        if M.ndim != 2 or M.shape[0] != self.world.world_size:
            raise ValueError(f"expected a ({self.world.world_size}, n) gradient matrix, "
                             f"got shape {M.shape}")
        return M

    def _staged_parameter_payloads(self, rows: Sequence[np.ndarray]
                                   ) -> List[np.ndarray]:
        """What each rank stages on the wire for a parameter exchange.

        Byzantine ranks stage corrupted *copies*: the poison reaches the
        aggregator (and through it the neighbours), while the rank's live
        parameter row — which the caller keeps — stays clean.
        """
        vectors = list(rows)
        if self.corruption is not None:
            vectors = self.corruption.staged(vectors)
        return vectors

    def _parameter_payload_bits(self, n: int) -> float:
        """Analytic bits of one rank's parameter payload (codec-aware)."""
        if self.parameter_codec is not None:
            return self.parameter_codec.wire_bits(n)
        return 32.0 * n

    def _exchange_parameters_compressed(self, param_rows: Sequence[np.ndarray]
                                        ) -> SyncReport:
        """Globally aggregate parameters through the delta codec.

        Every surviving rank's staged payload is its compressed delta; the
        payloads are allgathered (compressed payloads are not
        elementwise-reducible, so even the ``mean`` aggregator combines
        off-wire), the per-rank estimates are rebuilt as
        ``ref + decompress(delta)``, combined once by the aggregator (the
        combine is rank-invariant), and every surviving rank's row is set to
        the combined result.  References then advance to the estimates,
        keeping senders and receivers in lockstep.  Dead ranks neither
        compress nor transmit: their compressor residuals and references
        stay frozen until their rejoin re-sync resets them
        (``codec.resync_rank``).
        """
        codec = self.parameter_codec
        membership = self.world.membership
        alive = membership.alive_ranks()
        staged = self._staged_parameter_payloads(param_rows)
        payloads, estimates, wire_bits = codec.encode(membership.gather(staged),
                                                      ranks=alive)
        self.world.allgather(membership.scatter(payloads, [None] * len(staged)),
                             logical_bytes=wire_bits / 8.0)
        comm_time = self.world.last_comm_time
        combined = self.aggregator.combine(estimates)
        codec.advance(estimates, ranks=alive)
        for rank in alive:
            param_rows[rank][...] = combined
        aggregation_time = self.aggregator.combine_time_s(
            estimates.shape[0], estimates.shape[1])
        return SyncReport(
            compression_time_s=DEFAULT_COMPRESSION_MODEL.compression_time(
                codec.algorithm, estimates.shape[1]),
            comm_time_s=float(comm_time),
            wire_bits_per_worker=float(wire_bits),
            exchange="compressed_parameter_allgather",
            aggregation_time_s=float(aggregation_time))

    def _aggregate_global(self, vectors: List[np.ndarray]
                          ) -> Tuple[List[np.ndarray], SyncReport]:
        """Dense parameter aggregation across the alive ranks via the aggregator.

        Elementwise aggregators run as a true collective (for ``mean`` this
        is bitwise the seed's dense model average); robust aggregators
        allgather the vectors and combine them once.  The collectives run
        over the survivors, so the mean — and a trimmed mean's
        ``floor(trim_ratio · P)`` — renormalize over the alive count; dead
        ranks get their own vector back.
        """
        membership = self.world.membership
        if membership.num_alive == 0:
            # Permanent all-crash: the run ended with no survivors, so the
            # final consolidation has no participants — every rank keeps
            # its own parameters instead of deadlocking a collective.
            return list(vectors), self._passthrough_report()
        nbytes = float(np.asarray(vectors[0]).nbytes)
        aggregation_time = 0.0
        op = self.aggregator.collective_op
        if op is not None:
            results = self.world.allreduce(vectors, op, logical_bytes=nbytes)
            wire_exchange = "parameter_allreduce"
        else:
            gathered = self.world.allgather(vectors, logical_bytes=nbytes)
            stacked = np.stack(gathered[membership.alive_ranks()[0]])
            combined = self.aggregator.combine(stacked)
            aggregation_time = self.aggregator.combine_time_s(
                stacked.shape[0], stacked.shape[1])
            results = membership.scatter(
                [combined.copy() for _ in range(membership.num_alive)], vectors)
            wire_exchange = "parameter_allgather"
        comm_time = self.world.last_comm_time
        report = SyncReport(compression_time_s=0.0, comm_time_s=float(comm_time),
                            wire_bits_per_worker=8.0 * nbytes,
                            exchange=wire_exchange,
                            aggregation_time_s=float(aggregation_time))
        return results, report

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        bound = self.world is not None and f"P={self.world.world_size}" or "unbound"
        return f"{type(self).__name__}({bound})"
