"""The built-in synchronization strategies: allreduce, local SGD, gossip.

``allreduce`` is the paper's Algorithm 1 — every iteration, every rank's
gradient is compressed, exchanged with the collective its compressor
requests, aggregated, and reconstructed.  With the ``mean`` aggregator it
is bit-identical to the pre-redesign trainer; with a robust aggregator the
payloads are allgathered and combined off-wire instead (the aggregator
negotiates the exchange kind).

``local_sgd`` trades synchronization frequency for traffic: ranks apply
their raw local gradients and only every ``H``-th iteration exchange
*parameters* through the aggregator (dist-keras builds its DOWNPOUR/EASGD
family from exactly this schedule knob).  ``H = 1`` leaves no local-only
progress to average — every iteration is a synchronization point — so the
strategy degenerates to ``allreduce``, bit for bit, compressor semantics
(error feedback and all) included.

``gossip`` removes the global collective entirely: every iteration each
rank averages its parameters with its neighbours on a
:class:`~repro.comm.topology.CommTopology` graph, and the graph's degree —
not the world size — prices the exchange.  On a fully-connected graph the
closed neighbourhood is the whole world, so gossip with the ``mean``
aggregator matches global mean-allreduce training to float32 tolerance.

Both parameter-phase strategies optionally compress their parameter
payloads: with ``parameter_compression`` set, each rank ships a compressed
*delta* against the last synchronized reference through a
:class:`~repro.compress.param_delta.ParameterDeltaCodec` (quantized
gossip), extending the paper's compression story beyond the gradient
phase.  ``none`` keeps the dense float32 exchange, bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.topology import HierarchicalTopology
from repro.compress.base import ExchangeKind
from repro.core.cost_model import DEFAULT_COMPRESSION_MODEL
from repro.core.timeline import SyncReport
from repro.sync.base import SYNC_STRATEGIES, SyncStrategy


@SYNC_STRATEGIES.register("allreduce", aliases=("sync", "synchronous"),
                          description="Algorithm 1: compress + collective "
                                      "exchange + aggregate every iteration")
class AllreduceStrategy(SyncStrategy):
    """Synchronous gradient exchange — the seed trainer's semantics.

    The aggregator negotiates the exchange kind: aggregators that are
    elementwise reductions (``mean``) run as a true collective op on the
    wire for ALLREDUCE-kind compressors, exactly as the seed did; robust
    aggregators need every rank's payload, so the payloads are allgathered
    and combined once (the combine is rank-invariant), then reconstructed
    per rank.  ALLGATHER-kind compressors bake the mean into their
    ``decompress_gathered``, so robust aggregation is rejected for them
    (:meth:`SyncStrategy.compatibility_problems`) — see the support matrix
    in the README.
    """

    name = "allreduce"

    @classmethod
    def exchanges_gradients(cls, period: int = 1) -> bool:
        return True

    def wire_bits_per_iteration(self, n: int, world_size: int) -> float:
        return self.compressors[0].wire_bits(n, world_size)

    # ------------------------------------------------------------------ #
    # Only the alive ranks take part: dead ranks' compressors (and
    # error-feedback residuals) stay frozen and their gradient rows pass
    # through untouched (the trainer never applies them), and the wire
    # collective runs over the survivors, so a MEAN reduction renormalizes
    # over them automatically.
    def exchange_batched(self, G: np.ndarray) -> Tuple[np.ndarray, SyncReport]:
        """Synchronize one iteration from the stacked ``(P, n)`` matrix.

        Compression and reconstruction run through the compressor's
        ``compress_batch``/``decompress_batch`` kernels (the only kernels a
        compressor implements; its per-rank methods are a batch of one).
        Their cost is priced, not measured: one worker's
        ``compression_time(algorithm, n)`` from
        :data:`~repro.core.cost_model.DEFAULT_COMPRESSION_MODEL` (the
        workers compress in parallel in the modelled deployment).  The
        alive rows and compressors are taken through the membership's
        gather/scatter pair, which hands a healthy world's ``G`` and
        compressor list straight to the kernels and returns
        ``decompress_batch``'s own output.
        """
        G = np.asarray(self._validated_gradient_matrix(G), dtype=np.float32)
        self._step += 1
        if self.corruption is not None:
            self.corruption.apply_rows(G)
        membership = self.world.membership
        compressors = membership.gather(self.compressors)
        n = G.shape[1]
        reference = self.compressors[0]
        exchange_kind = reference.exchange
        wire_bits = reference.wire_bits(n, len(compressors))
        logical_bytes = wire_bits / 8.0
        batch = type(reference)

        payloads, contexts = batch.compress_batch(compressors, membership.gather(G))
        exchanged, comm_time, wire_exchange, aggregation_time = self._combine(
            membership.scatter(payloads, [None] * len(self.compressors)),
            exchange_kind, logical_bytes)
        new_matrix = batch.decompress_batch(
            compressors, membership.gather(exchanged), contexts)

        report = SyncReport(
            compression_time_s=DEFAULT_COMPRESSION_MODEL.compression_time(
                reference.name, n),
            comm_time_s=float(comm_time),
            wire_bits_per_worker=float(wire_bits),
            exchange=wire_exchange,
            aggregation_time_s=float(aggregation_time),
        )
        return membership.scatter(new_matrix, G), report

    def _combine(self, payloads: List[np.ndarray], exchange_kind: ExchangeKind,
                 logical_bytes: float) -> Tuple[Sequence, float, str, float]:
        """Exchange + aggregate the payloads; returns per-rank results.

        The aggregator decides the wire pattern: an elementwise-reduction
        aggregator runs the compressor's native collective (bitwise the
        seed behaviour for ``mean``); a robust aggregator allgathers the
        payloads and combines them once off-wire — that combine's modeled
        cost (the O(P·m) gather pass, sort/Weiszfeld work) is returned as
        the fourth element so the iteration report prices it.
        """
        aggregation_time = 0.0
        op = self.aggregator.collective_op
        if exchange_kind is ExchangeKind.ALLREDUCE:
            if op is not None:
                exchanged: Sequence = self.world.allreduce(
                    payloads, op, logical_bytes=logical_bytes)
                wire_exchange = exchange_kind.value
            else:
                gathered = self.world.allgather(payloads, logical_bytes=logical_bytes)
                # The combine is rank-invariant: compute once, share the
                # result.  Under a degraded membership a dead rank gathers
                # nothing — read from the first rank that received payloads.
                source = next(g for g in gathered if g)
                stacked = np.stack(source)
                combined = self.aggregator.combine(stacked)
                aggregation_time = self.aggregator.combine_time_s(
                    stacked.shape[0], stacked.shape[1])
                exchanged = [combined] * self.world.world_size
                wire_exchange = ExchangeKind.ALLGATHER.value
        else:
            exchanged = self.world.allgather(payloads, logical_bytes=logical_bytes)
            wire_exchange = exchange_kind.value
        return exchanged, self.world.last_comm_time, wire_exchange, aggregation_time

@SYNC_STRATEGIES.register("local_sgd", aliases=("localsgd", "periodic"),
                          description="apply local gradients; aggregate "
                                      "parameters every H iterations")
class LocalSGDStrategy(AllreduceStrategy):
    """Periodic parameter averaging (Local SGD / FedAvg-style schedule).

    With period ``H > 1``, iterations apply the raw local gradient with zero
    communication; every ``H``-th iteration the ranks aggregate their
    *parameter* vectors through the aggregator after the optimizer step.
    The compressor never runs — there is no gradient wire traffic to
    compress — so error-feedback state stays untouched.

    With ``H = 1`` every iteration is a synchronization point and no
    local-only progress ever exists to average away, so the strategy
    degenerates to :class:`AllreduceStrategy` (gradient exchange through
    the compressor), bit-identically — and with strictly less traffic than
    averaging full parameter vectors for compressors like A2SGD.
    """

    name = "local_sgd"
    uses_period = True

    @classmethod
    def exchanges_gradients(cls, period: int = 1) -> bool:
        # With H > 1 gradients never touch the wire, so any aggregator works
        # with any compressor (the aggregator only combines parameters).
        return period == 1

    @classmethod
    def exchanges_parameters(cls, period: int = 1) -> bool:
        return period > 1

    def post_step_pending(self) -> bool:
        # _step > 0: no iteration has been exchanged yet before training.
        return self.period > 1 and self._step > 0 and self._step % self.period == 0

    def wire_bits_per_iteration(self, n: int, world_size: int) -> float:
        """Amortized: one parameter-payload exchange every H steps.

        Dense float32 vectors cost 32n bits; with ``parameter_compression``
        the configured compressor's actual payload bits are charged instead.
        """
        if self.period == 1:
            return super().wire_bits_per_iteration(n, world_size)
        return self._parameter_payload_bits(n) / self.period

    def exchange_batched(self, G: np.ndarray) -> Tuple[np.ndarray, SyncReport]:
        if self.period == 1:
            return super().exchange_batched(G)
        # Local-only iteration: nothing gradient-shaped ever reaches the
        # wire, so Byzantine corruption does NOT touch the local gradients —
        # it poisons the parameter payload staged in post_step instead.
        self._validated_gradient_matrix(G)
        self._step += 1
        return G, self._passthrough_report()

    def post_step(self, param_rows: Sequence[np.ndarray]) -> Optional[SyncReport]:
        if self.period == 1 or self._step % self.period != 0:
            return None
        if self.parameter_codec is not None:
            return self._exchange_parameters_compressed(param_rows)
        vectors = self._staged_parameter_payloads(param_rows)
        results, report = self._aggregate_global(vectors)
        # Dead ranks keep their stale parameters (their "result" is just
        # their own — possibly corruption-poisoned — staged copy anyway);
        # they catch up through a dense re-sync at rejoin.
        for rank in self.world.membership.alive_ranks():
            param_rows[rank][...] = results[rank]
        return report


@SYNC_STRATEGIES.register("fedavg", aliases=("federated_averaging", "fed_avg"),
                          description="sampled-cohort periodic parameter "
                                      "averaging (FedAvg), optionally priced "
                                      "over a hierarchical topology")
class FedAvgStrategy(LocalSGDStrategy):
    """Federated averaging: local SGD numerics over a sampled cohort.

    Numerically this *is* :class:`LocalSGDStrategy` — the materialized
    replica slots run ``H`` local steps and average parameters at every
    sync point — which pins ``fedavg`` with the ``full`` sampler and
    ``N = K = P`` bit-identical to ``local_sgd``.  What changes is who
    occupies the slots (the trainer's
    :class:`~repro.federated.population.ClientPopulation` swaps sampled
    cohort clients in and out at round boundaries) and, optionally, what
    the averaging costs on the wire: bound to a two-level
    :class:`~repro.comm.topology.HierarchicalTopology`, the dense
    parameter exchange is priced as cohort→edge uplinks, count-weighted
    edge→server partial sums, and the same tree walked back down for the
    broadcast — only the active cohort's edges, never the population.

    The edge aggregators forward *count-weighted partial sums*, so the
    two-level combine equals the flat cohort mean mathematically (to
    float32 summation order); elementwise aggregators only (``mean``) —
    robust combines do not decompose over a tree.  The compressed
    parameter path (``parameter_compression``) keeps the flat allgather
    pricing: compressed payloads are not partial-summable at the edges.
    """

    name = "fedavg"
    uses_period = True
    optional_topology = True

    @classmethod
    def compatibility_problems(cls, features) -> List[str]:
        problems = super().compatibility_problems(features)
        topology, aggregator = features.topology, features.aggregator
        if topology is None:
            return problems
        if not issubclass(topology, HierarchicalTopology):
            problems.append(
                f"sync strategy {cls.name!r} accepts the two-level "
                f"'hierarchical' topology only (got {topology.name!r}); "
                f"omit the topology for flat server aggregation")
        elif aggregator is not None and aggregator.collective_op is None:
            problems.append(
                f"hierarchical fedavg count-weights partial sums through "
                f"edge aggregators and supports elementwise aggregators "
                f"only, not {aggregator.name!r}; use flat fedavg "
                f"(no topology) for robust aggregation")
        return problems

    def wire_bits_per_iteration(self, n: int, world_size: int) -> float:
        """Amortized per-worker traffic; tree-priced when hierarchical.

        The busiest node of the tree is an edge aggregator: it receives its
        group's uplink payloads and forwards one partial sum (then the same
        links carry the broadcast back), so ``max_group_size + 1`` payloads
        per sync point gate the exchange.
        """
        if self.period == 1 or self.topology is None:
            return super().wire_bits_per_iteration(n, world_size)
        payload_bits = self._parameter_payload_bits(n)
        busiest = self.topology.max_group_size(world_size) + 1
        return busiest * payload_bits / self.period

    def _aggregate_global(self, vectors):
        # A world with a dead rank falls back to the flat survivors'
        # collective — the tree has no rule for routing around a dead edge
        # aggregator, so it prices whole cohorts only.
        if self.topology is None or self.world.membership.dead_ranks().size:
            return super()._aggregate_global(vectors)
        return self._aggregate_hierarchical(vectors)

    def _aggregate_hierarchical(self, vectors):
        """Cohort mean priced over the clients → edges → server tree.

        Wire accounting charges only the active cohort's edges: ``K``
        client→edge uplinks, one count-weighted partial sum per edge to the
        server, and the mirror-image broadcast — ``2·(K + E)`` α–β messages
        total, independent of the logical population size.
        """
        world, topology = self.world, self.topology
        cohort = world.world_size
        stacked = np.stack([np.asarray(v, dtype=np.float32) for v in vectors])
        nbytes = float(stacked[0].nbytes)
        groups = topology.edge_groups(cohort)
        comm_time = 0.0
        for _ in range(2 * (cohort + len(groups))):
            comm_time += world.point_to_point(nbytes)
        partials = [stacked[list(group)].sum(axis=0, dtype=np.float64)
                    for group in groups]
        combined = (np.sum(partials, axis=0) / cohort).astype(np.float32)
        results = [combined.copy() for _ in range(cohort)]
        # Dense parameters compress nothing; the partial sums are the
        # aggregation, which ``combine_time_s`` prices.
        aggregation_time = self.aggregator.combine_time_s(cohort,
                                                          stacked.shape[1])
        report = SyncReport(
            compression_time_s=0.0,
            comm_time_s=float(comm_time),
            wire_bits_per_worker=(topology.max_group_size(cohort) + 1)
            * 8.0 * nbytes,
            exchange="hierarchical_parameter_exchange",
            aggregation_time_s=float(aggregation_time))
        return results, report


@SYNC_STRATEGIES.register("gossip", aliases=("neighbor", "decentralized"),
                          description="average parameters with topology "
                                      "neighbours every iteration")
class GossipStrategy(SyncStrategy):
    """Decentralized neighbour averaging over a communication graph.

    Every iteration each rank applies its raw local gradient, then replaces
    its parameters with the aggregator's combine of its *closed
    neighbourhood* (itself + graph neighbours).  With the ``mean``
    aggregator this is classic gossip averaging: information diffuses at
    the graph's spectral rate, and the α–β cost of a step is set by the
    maximum degree (a ring costs two messages for any ``P >= 3``).  On a
    fully-connected graph the neighbourhood is the whole world and training
    matches global mean-allreduce to float32 tolerance.
    """

    name = "gossip"
    needs_topology = True

    @classmethod
    def exchanges_parameters(cls, period: int = 1) -> bool:
        return True

    def post_step_pending(self) -> bool:
        return True

    def wire_bits_per_iteration(self, n: int, world_size: int) -> float:
        """One parameter payload to each neighbour of the *busiest* rank.

        Priced by the graph's **maximum** degree — the same critical path
        the α–β network model charges for the exchange (a star's hub sends
        P − 1 payloads while the leaves send one; the hub gates the step).
        Per-payload bits are 32n for dense float32 vectors, or the
        configured ``parameter_compression`` compressor's actual bits.
        The *average* per-rank traffic is ``topology.mean_degree(P)``
        payloads instead.
        """
        if self.topology is None:
            return 0.0
        every_rank = (True,) * world_size
        return (self.topology.max_degree(world_size, every_rank)
                * self._parameter_payload_bits(n))

    def exchange_batched(self, G: np.ndarray) -> Tuple[np.ndarray, SyncReport]:
        # Gradients never reach the wire under gossip; Byzantine corruption
        # poisons the parameter payload staged in post_step instead.
        self._validated_gradient_matrix(G)
        self._step += 1
        return G, self._passthrough_report()

    def post_step(self, param_rows: Sequence[np.ndarray]) -> Optional[SyncReport]:
        world, topology = self.world, self.topology
        membership = world.membership
        # The re-routed graph's busiest survivor gates the step.
        max_degree = topology.max_degree(world.world_size, membership.alive)
        if self.parameter_codec is not None:
            return self._gossip_compressed(param_rows, max_degree)
        staged_rows = self._staged_parameter_payloads(param_rows)
        nbytes = float(np.asarray(staged_rows[0]).nbytes)
        gathered = world.neighbor_exchange(staged_rows, topology)
        comm_time = world.last_comm_time
        # All neighbourhood payloads are staged read-only copies, so the
        # in-place writes below cannot corrupt a neighbour's input.  Dead
        # ranks are excluded from the exchange and keep their rows.
        n = int(np.asarray(param_rows[0]).size)
        for rank in membership.alive_ranks():
            param_rows[rank][...] = self.aggregator.combine(np.stack(gathered[rank]))
        # Per-rank combines run in parallel in the modeled deployment; the
        # busiest rank (max closed neighbourhood) gates the step.
        aggregation_time = self.aggregator.combine_time_s(max_degree + 1, n)
        return SyncReport(compression_time_s=0.0, comm_time_s=float(comm_time),
                          wire_bits_per_worker=max_degree * 8.0 * nbytes,
                          exchange="neighbor_exchange",
                          aggregation_time_s=float(aggregation_time))

    def _gossip_compressed(self, param_rows: Sequence[np.ndarray],
                           max_degree: int) -> SyncReport:
        """One gossip step over compressed parameter deltas.

        Each surviving rank ships its compressed delta to its neighbours;
        receivers rebuild the sender's estimate as ``ref + decompress(delta)``
        and aggregate their closed neighbourhood's *estimates* (including
        their own — sender and receivers must agree on what rank ``p``'s
        parameters look like).  References advance to the estimates, so the
        next deltas stay small and the compressors' error feedback carries
        the loss forward.  Dead ranks do not encode: their compressor
        residuals and references stay frozen, and their (stale) parameter
        rows never enter a neighbourhood — the re-routed graph excludes them.
        """
        world, topology = self.world, self.topology
        codec = self.parameter_codec
        membership = world.membership
        alive = membership.alive_ranks()
        staged_rows = self._staged_parameter_payloads(param_rows)
        payloads, estimates, wire_bits = codec.encode(membership.gather(staged_rows),
                                                      ranks=alive)
        # The exchange moves the compressed payloads (the estimates are
        # recomputed locally by every receiver); the α–β model prices the
        # compressed payload size, not the dense vectors it stands for.
        world.neighbor_exchange(membership.scatter(payloads, [None] * world.world_size),
                                topology, logical_bytes=wire_bits / 8.0)
        comm_time = world.last_comm_time
        # Row i of the estimates is the i-th survivor's.
        position = {rank: i for i, rank in enumerate(alive)}
        for rank in alive:
            neighborhood = [position[q] for q in topology.closed_neighborhood(
                rank, world.world_size, membership.alive)]
            param_rows[rank][...] = self.aggregator.combine(estimates[neighborhood])
        codec.advance(estimates, ranks=alive)
        n = int(np.asarray(param_rows[0]).size)
        aggregation_time = self.aggregator.combine_time_s(max_degree + 1, n)
        return SyncReport(
            compression_time_s=DEFAULT_COMPRESSION_MODEL.compression_time(
                codec.algorithm, n),
            comm_time_s=float(comm_time),
            wire_bits_per_worker=max_degree * float(wire_bits),
            exchange="compressed_neighbor_exchange",
            aggregation_time_s=float(aggregation_time))
