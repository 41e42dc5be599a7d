"""Cluster and communication-graph topology descriptions.

Two kinds of topology live here:

* :class:`ClusterTopology` / :class:`NodeSpec` — the *physical* testbed
  description (the paper's 16 × V100 cluster) used by the cost model to
  translate measured compute times into testbed estimates.
* :class:`CommTopology` and its registry ``TOPOLOGIES`` — *logical*
  communication graphs over the ranks of a world (ring, star,
  fully-connected, hierarchical).  The gossip synchronization strategy
  averages each rank's parameters with its graph neighbours, and the
  graph's degree structure drives the α–β network cost of the exchange
  (:meth:`repro.comm.inprocess.InProcessWorld.neighbor_exchange`).  Each
  graph answers every query under an alive mask — one rule per graph that
  routes around dead ranks, whose all-alive answer is the static graph — so
  a degraded world and a healthy one ask the same question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.comm.network_model import NetworkModel, infiniband_100gbps
from repro.registry import Registry


@dataclass(frozen=True)
class NodeSpec:
    """A single node of the cluster."""

    name: str = "node"
    gpus_per_node: int = 1
    gpu_memory_gb: float = 16.0
    cpu_memory_gb: float = 256.0
    #: Relative compute speed versus the machine running the simulation (1.0
    #: means "assume the simulation host's measured compute time").
    relative_compute_speed: float = 1.0


@dataclass(frozen=True)
class ClusterTopology:
    """A homogeneous cluster of ``num_nodes`` nodes on one fabric."""

    num_nodes: int = 16
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkModel = field(default_factory=infiniband_100gbps)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("a cluster needs at least one node")

    @property
    def total_workers(self) -> int:
        """One worker per GPU, as in the paper's Horovod setup."""
        return self.num_nodes * self.node.gpus_per_node

    def validate_world_size(self, world_size: int) -> None:
        """Check that a requested worker count fits on this cluster."""
        if world_size > self.total_workers:
            raise ValueError(f"world size {world_size} exceeds cluster capacity "
                             f"{self.total_workers}")


# --------------------------------------------------------------------- #
# logical communication graphs (gossip neighbourhoods)
# --------------------------------------------------------------------- #
class CommTopology:
    """A communication graph over the ranks ``0 .. world_size-1``.

    Every query takes the world's alive mask (``alive[r]`` is whether rank
    ``r`` participates; a healthy world passes all ``True``): the graph a
    gossip step runs on is the one routed around dead ranks, and the static
    graph is its all-alive case.  Subclasses define :meth:`neighbors`;
    everything else (degrees, closed neighbourhoods, validation) derives
    from it.  Graphs are undirected in spirit — a rank both sends to and
    receives from its neighbours — but :meth:`neighbors` is the single
    source of truth, so an asymmetric graph (the star's hub) simply returns
    asymmetric neighbour sets.
    """

    name: str = "base"

    def neighbors(self, rank: int, world_size: int,
                  alive: Sequence[bool]) -> Tuple[int, ...]:
        """Surviving ranks that ``rank`` exchanges with (excluding itself),
        ascending.  A dead rank has none, and no dead rank is anyone's
        neighbour."""
        raise NotImplementedError

    def closed_neighborhood(self, rank: int, world_size: int,
                            alive: Sequence[bool]) -> Tuple[int, ...]:
        """``rank`` plus its neighbours, ascending — the gossip averaging set.

        The order is part of the contract: a gossip mean sums the set in
        this order, so reordering it would change the float result.
        """
        self.validate(world_size)
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world size {world_size}")
        return tuple(sorted({rank, *self.neighbors(rank, world_size, alive)}))

    def degree(self, rank: int, world_size: int, alive: Sequence[bool]) -> int:
        return len(self.neighbors(rank, world_size, alive))

    def max_degree(self, world_size: int, alive: Sequence[bool]) -> int:
        """Max degree over surviving ranks — the exchange's critical path."""
        return max((self.degree(r, world_size, alive)
                    for r in range(world_size) if alive[r]), default=0)

    def mean_degree(self, world_size: int, alive: Sequence[bool]) -> float:
        survivors = [r for r in range(world_size) if alive[r]]
        if not survivors:
            return 0.0
        return sum(self.degree(r, world_size, alive)
                   for r in survivors) / len(survivors)

    def validate(self, world_size: int) -> "CommTopology":
        if world_size < 1:
            raise ValueError("world size must be at least 1")
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


#: Registry of communication graphs constructible by name (spec/CLI).
TOPOLOGIES = Registry("topology", expose="topologies")


@TOPOLOGIES.register("ring", description="each rank talks to its two ring neighbours")
class RingTopology(CommTopology):
    """Ring graph: rank ``r`` neighbours ``(r-1) % P`` and ``(r+1) % P``."""

    name = "ring"

    def neighbors(self, rank: int, world_size: int,
                  alive: Sequence[bool]) -> Tuple[int, ...]:
        """Walk the ring past dead ranks: each survivor connects to the
        nearest alive rank in each direction, keeping the ring closed (with
        every rank alive, its two ring neighbours)."""
        if world_size <= 1 or not alive[rank]:
            return ()
        found = set()
        for step in (-1, 1):
            node = (rank + step) % world_size
            while node != rank and not alive[node]:
                node = (node + step) % world_size
            if node != rank:
                found.add(node)
        return tuple(sorted(found))


@TOPOLOGIES.register("star", description="every rank talks to hub rank 0")
class StarTopology(CommTopology):
    """Star graph: rank 0 is the hub, every other rank is a leaf."""

    name = "star"

    def neighbors(self, rank: int, world_size: int,
                  alive: Sequence[bool]) -> Tuple[int, ...]:
        """The lowest surviving rank is the hub (rank 0 while it lives), so
        the leaves are never stranded when the hub dies."""
        if world_size <= 1 or not alive[rank]:
            return ()
        survivors = [r for r in range(world_size) if alive[r]]
        if len(survivors) <= 1:
            return ()
        hub = survivors[0]
        if rank == hub:
            return tuple(r for r in survivors if r != hub)
        return (hub,)


@TOPOLOGIES.register("fully_connected", aliases=("full", "complete"),
                     description="every rank talks to every other rank")
class FullyConnectedTopology(CommTopology):
    """Complete graph: gossip over it equals a global average."""

    name = "fully_connected"

    def neighbors(self, rank: int, world_size: int,
                  alive: Sequence[bool]) -> Tuple[int, ...]:
        if not alive[rank]:
            return ()
        return tuple(r for r in range(world_size) if r != rank and alive[r])


@TOPOLOGIES.register("hierarchical", aliases=("two_level", "edge"),
                     description="two-level tree: clients -> edge "
                                 "aggregators -> server")
class HierarchicalTopology(CommTopology):
    """Two-level aggregation tree: clients → edge aggregators → server.

    The active cohort's slots are split into ``num_edges`` contiguous
    groups, each served by one edge aggregator; the edges feed one central
    server.  The fedavg strategy prices its parameter averaging over this
    tree's edges only — ``K`` client uplinks, ``num_edges`` edge→server
    links, and the same links again for the broadcast back — so inactive
    clients never appear on the wire.

    As a gossip graph, :meth:`neighbors` connects the members of one edge
    group to each other (the set of slots whose updates the edge aggregator
    combines), which keeps the graph valid for degree-based pricing.
    """

    name = "hierarchical"

    def __init__(self, num_edges: int = 2):
        if num_edges < 1:
            raise ValueError(f"num_edges must be >= 1, got {num_edges}")
        self.num_edges = int(num_edges)

    def edge_groups(self, world_size: int) -> Tuple[Tuple[int, ...], ...]:
        """Contiguous slot groups, one per edge aggregator (non-empty)."""
        self.validate(world_size)
        edges = min(self.num_edges, world_size)
        bounds = [world_size * e // edges for e in range(edges + 1)]
        return tuple(tuple(range(bounds[e], bounds[e + 1]))
                     for e in range(edges))

    def edge_of(self, rank: int, world_size: int) -> int:
        """The edge aggregator serving ``rank``."""
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world size "
                             f"{world_size}")
        for edge, group in enumerate(self.edge_groups(world_size)):
            if rank in group:
                return edge
        raise AssertionError("edge groups must cover every rank")

    def max_group_size(self, world_size: int) -> int:
        return max(len(group) for group in self.edge_groups(world_size))

    def neighbors(self, rank: int, world_size: int,
                  alive: Sequence[bool]) -> Tuple[int, ...]:
        if not alive[rank]:
            return ()
        group = self.edge_groups(world_size)[self.edge_of(rank, world_size)]
        return tuple(r for r in group if r != rank and alive[r])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"HierarchicalTopology(num_edges={self.num_edges})"


def get_topology(name: str) -> CommTopology:
    """Construct a registered communication graph, e.g. ``get_topology("ring")``."""
    return TOPOLOGIES.create(name)


def paper_testbed() -> ClusterTopology:
    """The evaluation cluster from §4.1: 16 × (1 V100, 256 GB RAM), 100 Gbps IB."""
    return ClusterTopology(num_nodes=16,
                           node=NodeSpec(name="v100-node", gpus_per_node=1,
                                         gpu_memory_gb=16.0, cpu_memory_gb=256.0),
                           network=infiniband_100gbps())
