"""Tests for the in-process world and its traffic/time accounting."""

import numpy as np
import pytest

from repro.comm import CollectiveOp, InProcessWorld, NetworkModel


class TestInProcessWorld:
    def test_requires_positive_world_size(self):
        with pytest.raises(ValueError):
            InProcessWorld(0)

    def test_allreduce_mean(self, rng):
        world = InProcessWorld(4)
        buffers = [rng.standard_normal(50).astype(np.float32) for _ in range(4)]
        results = world.allreduce(buffers)
        np.testing.assert_allclose(results[0], np.mean(np.stack(buffers), axis=0),
                                   rtol=1e-5, atol=1e-6)

    def test_wrong_number_of_contributions(self, rng):
        world = InProcessWorld(4)
        with pytest.raises(ValueError):
            world.allreduce([rng.standard_normal(3)] * 3)

    def test_allgather(self, rng):
        world = InProcessWorld(3)
        buffers = [np.full(4, float(r)) for r in range(3)]
        gathered = world.allgather(buffers)
        assert len(gathered[1]) == 3

    def test_stats_accumulate(self, rng):
        world = InProcessWorld(4)
        buffers = [rng.standard_normal(100).astype(np.float32) for _ in range(4)]
        world.allreduce(buffers)
        world.allreduce(buffers)
        assert world.stats.collective_counts["allreduce_ring"] == 2
        assert world.stats.simulated_time_s > 0
        assert world.stats.bytes_sent_per_rank > 0
        world.reset_stats()
        assert world.stats.simulated_time_s == 0.0
        assert world.stats.collective_counts == {}

    def test_logical_bytes_override_prices_wire_size(self, rng):
        # The A2SGD case: the simulated payload is 2 float64 (16 bytes) but the
        # wire encoding is 8 bytes; the recorded traffic must be 8 bytes.
        world = InProcessWorld(4)
        payloads = [np.array([0.5, 0.25]) for _ in range(4)]
        world.allreduce(payloads, logical_bytes=8.0)
        assert world.last_trace.message_bytes == pytest.approx(8.0)
        assert world.stats.logical_payload_bytes == pytest.approx(8.0)

    def test_simulated_time_reflects_message_size(self, rng):
        small_world = InProcessWorld(8)
        big_world = InProcessWorld(8)
        small = [np.zeros(2) for _ in range(8)]
        big = [np.zeros(500_000, dtype=np.float32) for _ in range(8)]
        small_world.allreduce(small)
        big_world.allreduce(big)
        assert big_world.simulated_comm_time > small_world.simulated_comm_time * 10

    def test_custom_network_model_changes_cost(self, rng):
        slow = InProcessWorld(4, network=NetworkModel(latency_s=1e-3, bandwidth_Bps=1e6))
        fast = InProcessWorld(4)
        payload = [np.zeros(1000, dtype=np.float32) for _ in range(4)]
        slow.allreduce(payload)
        fast.allreduce(payload)
        assert slow.simulated_comm_time > fast.simulated_comm_time

    def test_single_worker_world_costs_nothing(self):
        world = InProcessWorld(1)
        result = world.allreduce([np.array([1.0, 2.0])])
        np.testing.assert_allclose(result[0], [1.0, 2.0])
        assert world.simulated_comm_time == 0.0

class TestCollectiveOpMax:
    """CollectiveOp.MAX is supported end to end by the traced world."""

    def test_ring_allreduce_max(self, rng):
        P = 4
        world = InProcessWorld(P)
        buffers = [rng.standard_normal(37).astype(np.float32) for _ in range(P)]
        results = world.allreduce(buffers, CollectiveOp.MAX)
        expected = np.max(np.stack(buffers), axis=0)
        for r in range(P):
            np.testing.assert_allclose(results[r], expected, rtol=1e-6)

    def test_max_is_traced_and_priced_like_sum(self, rng):
        """MAX moves the same bytes as SUM — the op changes arithmetic, not
        the collective's wire pattern."""
        buffers = [rng.standard_normal(256).astype(np.float32) for _ in range(4)]
        max_world = InProcessWorld(4)
        max_world.allreduce([b.copy() for b in buffers], CollectiveOp.MAX)
        sum_world = InProcessWorld(4)
        sum_world.allreduce([b.copy() for b in buffers], CollectiveOp.SUM)
        assert max_world.stats.bytes_sent_per_rank == sum_world.stats.bytes_sent_per_rank
        assert max_world.simulated_comm_time == sum_world.simulated_comm_time
        assert max_world.last_trace.kind == "allreduce_ring"

    def test_max_single_rank(self, rng):
        world = InProcessWorld(1)
        buffer = rng.standard_normal(9).astype(np.float32)
        np.testing.assert_allclose(world.allreduce([buffer], CollectiveOp.MAX)[0],
                                   buffer, rtol=1e-6)

