"""Communication-graph topologies and the neighbor_exchange collective."""

import numpy as np
import pytest

from repro.comm import InProcessWorld
from repro.comm.collectives import neighbor_exchange
from repro.comm.network_model import CollectiveTimeModel, ethernet_10gbps
from repro.comm.topology import (
    TOPOLOGIES,
    FullyConnectedTopology,
    RingTopology,
    StarTopology,
    get_topology,
)


class TestGraphs:
    def test_registry_lists_the_graphs(self):
        assert TOPOLOGIES.list() == ["fully_connected", "hierarchical",
                                     "ring", "star"]
        assert isinstance(get_topology("full"), FullyConnectedTopology)

    def test_closed_neighborhood_validates_rank_and_world(self):
        ring = RingTopology()
        with pytest.raises(ValueError):
            ring.closed_neighborhood(5, 5, (True,) * 5)
        with pytest.raises(ValueError):
            ring.validate(0)


class TestNeighborExchange:
    def test_each_rank_receives_its_closed_neighborhood(self, rng):
        P = 5
        buffers = [np.full(4, float(r), dtype=np.float32) for r in range(P)]
        alive = (True,) * P
        gathered, trace = neighbor_exchange(buffers, RingTopology(), alive)
        for rank in range(P):
            received = sorted(float(a[0]) for a in gathered[rank])
            expected = sorted(float(q) for q in
                              RingTopology().closed_neighborhood(rank, P, alive))
            assert received == expected

    def test_payloads_are_shared_read_only_views(self, rng):
        buffers = [rng.standard_normal(8).astype(np.float32) for _ in range(4)]
        gathered, _ = neighbor_exchange(buffers, FullyConnectedTopology(), (True,) * 4)
        sample = gathered[0][1]
        assert not sample.flags.writeable
        # Every rank sees the same staged storage for a given contributor
        # (one copy per contributor, not per listener).
        assert gathered[0][1] is gathered[2][1] or gathered[0][1].base is not None

    def test_trace_reflects_graph_degree_not_world_size(self, rng):
        P = 8
        buffers = [rng.standard_normal(16).astype(np.float32) for _ in range(P)]
        _, ring_trace = neighbor_exchange(buffers, RingTopology(), (True,) * P)
        _, full_trace = neighbor_exchange(buffers, FullyConnectedTopology(), (True,) * P)
        assert ring_trace.kind == "neighbor_exchange"
        assert ring_trace.rounds == 2                      # ring max degree
        assert full_trace.rounds == P - 1
        assert ring_trace.bytes_sent_per_rank == 2 * buffers[0].nbytes
        assert full_trace.bytes_sent_per_rank == (P - 1) * buffers[0].nbytes

    def test_world_prices_by_max_degree(self, rng):
        network = ethernet_10gbps()
        P = 8
        buffers = [rng.standard_normal(1000).astype(np.float32) for _ in range(P)]
        ring_world = InProcessWorld(P, network=network)
        ring_world.neighbor_exchange(buffers, RingTopology())
        star_world = InProcessWorld(P, network=network)
        star_world.neighbor_exchange(buffers, StarTopology())
        model = CollectiveTimeModel(network)
        nbytes = buffers[0].nbytes
        assert ring_world.simulated_comm_time == pytest.approx(
            model.neighbor_exchange(nbytes, 2))
        assert star_world.simulated_comm_time == pytest.approx(
            model.neighbor_exchange(nbytes, P - 1))
        # The hub-bound star costs more than the constant-degree ring.
        assert star_world.simulated_comm_time > ring_world.simulated_comm_time

    def test_world_validates_contribution_count(self, rng):
        world = InProcessWorld(4)
        with pytest.raises(ValueError):
            world.neighbor_exchange([np.zeros(3)] * 3, RingTopology())

