"""Tests for the α–β network model and cluster topology."""

import math

import numpy as np
import pytest

from repro.comm import (
    CollectiveTimeModel,
    NetworkModel,
    ethernet_10gbps,
    infiniband_100gbps,
)
from repro.comm.topology import ClusterTopology, NodeSpec, paper_testbed


class TestNetworkModel:
    def test_point_to_point_formula(self):
        model = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9)
        assert model.point_to_point(1e6) == pytest.approx(1e-6 + 1e-3)

    def test_zero_bytes_costs_latency_only(self):
        model = NetworkModel(latency_s=5e-6, bandwidth_Bps=1e9)
        assert model.point_to_point(0) == pytest.approx(5e-6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1e-6, bandwidth_Bps=1e9)
        with pytest.raises(ValueError):
            NetworkModel(latency_s=1e-6, bandwidth_Bps=0)

    def test_presets(self):
        ib = infiniband_100gbps()
        eth = ethernet_10gbps()
        assert ib.bandwidth_Bps == pytest.approx(12.5e9)
        assert eth.bandwidth_Bps < ib.bandwidth_Bps
        assert eth.latency_s > ib.latency_s


class TestCollectiveTimeModel:
    @pytest.fixture
    def model(self):
        return CollectiveTimeModel(infiniband_100gbps())

    def test_single_rank_is_free(self, model):
        assert model.allreduce_ring(1e6, 1) == 0.0
        assert model.allgather(1e6, 1) == 0.0

    def test_ring_allreduce_formula(self, model):
        p, m = 8, 1e6
        expected = 2 * (p - 1) * (model.network.latency_s + (m / p) / model.network.bandwidth_Bps)
        assert model.allreduce_ring(m, p) == pytest.approx(expected)

    def test_recursive_doubling_formula(self, model):
        p, m = 8, 8.0
        expected = 3 * (model.network.latency_s + m / model.network.bandwidth_Bps)
        assert model.allreduce_recursive_doubling(m, p) == pytest.approx(expected)

    def test_allreduce_dispatch_small_vs_large(self, model):
        small = model.allreduce(8.0, 8)
        assert small == pytest.approx(model.allreduce_recursive_doubling(8.0, 8))
        large = model.allreduce(1e8, 8)
        assert large == pytest.approx(model.allreduce_ring(1e8, 8))

    def test_a2sgd_message_is_latency_bound(self, model):
        # The 8-byte A2SGD exchange should be microseconds even at 16 workers.
        assert model.allreduce(8.0, 16) < 1e-4

    def test_dense_lstm_exchange_is_bandwidth_bound(self, model):
        # 66M float32 gradients = 264 MB; a ring allreduce moves ~2x that.
        time_s = model.allreduce(264e6, 16)
        assert 0.01 < time_s < 1.0

    def test_allreduce_time_grows_with_world_size(self, model):
        times = [model.allreduce_ring(1e7, p) for p in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_allgather_linear_in_world_size(self, model):
        t4 = model.allgather(1e6, 4)
        t8 = model.allgather(1e6, 8)
        assert t8 > t4
        assert t8 / t4 == pytest.approx(7 / 3, rel=1e-6)

    def test_collective_time_dispatch(self, model):
        assert model.collective_time("allgather", 100.0, 4) == pytest.approx(
            model.allgather(100.0, 4))
        with pytest.raises(KeyError):
            model.collective_time("alltoall", 100.0, 4)


class TestTopology:
    def test_paper_testbed_matches_section_4_1(self):
        cluster = paper_testbed()
        assert cluster.num_nodes == 16
        assert cluster.node.gpus_per_node == 1
        assert cluster.node.gpu_memory_gb == pytest.approx(16.0)
        assert cluster.network.name == "100Gbps InfiniBand"
        assert cluster.total_workers == 16

    def test_validate_world_size(self):
        cluster = ClusterTopology(num_nodes=4)
        cluster.validate_world_size(4)
        with pytest.raises(ValueError):
            cluster.validate_world_size(5)

    def test_invalid_cluster(self):
        with pytest.raises(ValueError):
            ClusterTopology(num_nodes=0)
