"""Tests for the allreduce gradient exchange (Algorithm 1 lines 3–6, all algorithms)."""

import copy

import numpy as np
import pytest

from repro.comm import InProcessWorld
from repro.compress import get_compressor
from repro.compress.base import compressor_state_arrays
from repro.compress.registry import list_compressors
from repro.core.cost_model import CostModel
from repro.faults.membership import Membership
from repro.sync.aggregators import MeanAggregator
from repro.sync.strategies import AllreduceStrategy

from tests.reference_trainer import exchange_per_rank


def make_sync(algorithm: str, world_size: int = 4, **kwargs):
    world = InProcessWorld(world_size)
    compressors = [get_compressor(algorithm, **kwargs) for _ in range(world_size)]
    return AllreduceStrategy().bind(world, compressors, MeanAggregator()), world


def make_gradients(rng, world_size=4, n=2000, scale=0.01):
    return [(rng.standard_normal(n) * scale).astype(np.float32) for _ in range(world_size)]


class TestConstruction:
    def test_requires_one_compressor_per_rank(self):
        world = InProcessWorld(4)
        with pytest.raises(ValueError):
            AllreduceStrategy().bind(world, [get_compressor("dense")] * 3, MeanAggregator())

    def test_rejects_shared_instances(self):
        world = InProcessWorld(2)
        shared = get_compressor("a2sgd")
        with pytest.raises(ValueError):
            AllreduceStrategy().bind(world, [shared, shared], MeanAggregator())

    def test_rejects_mixed_algorithms(self):
        world = InProcessWorld(2)
        with pytest.raises(ValueError):
            AllreduceStrategy().bind(world, [get_compressor("dense"), get_compressor("a2sgd")],
                                     MeanAggregator())

    def test_algorithm_property(self):
        sync, _ = make_sync("a2sgd", 2)
        assert sync.algorithm == "a2sgd"


class TestExchangeSemantics:
    def test_dense_exchange_returns_exact_average(self, rng):
        sync, _ = make_sync("dense")
        gradients = make_gradients(rng)
        new_gradients, report = sync.exchange_batched(np.stack(gradients))
        expected = np.mean(np.stack(gradients), axis=0)
        for g in new_gradients:
            np.testing.assert_allclose(g, expected, rtol=1e-4, atol=1e-6)
        assert report.exchange == "allreduce"

    def test_a2sgd_exchange_uses_global_means_and_local_errors(self, rng):
        sync, _ = make_sync("a2sgd")
        gradients = make_gradients(rng)
        new_gradients, report = sync.exchange_batched(np.stack(gradients))
        assert report.exchange == "allreduce"
        assert report.wire_bits_per_worker == 64.0
        # Workers get different gradients (their own error vectors)…
        assert not np.allclose(new_gradients[0], new_gradients[1])
        # …but the across-worker mean tracks the dense average.
        dense_avg = np.mean(np.stack(gradients), axis=0)
        a2sgd_avg = np.mean(np.stack(new_gradients), axis=0)
        gap = np.linalg.norm(a2sgd_avg - dense_avg) / np.linalg.norm(dense_avg)
        assert gap < 0.35

    def test_topk_exchange_uses_allgather(self, rng):
        sync, world = make_sync("topk", world_size=3, ratio=0.01)
        gradients = make_gradients(rng, world_size=3)
        new_gradients, report = sync.exchange_batched(np.stack(gradients))
        assert report.exchange == "allgather"
        assert "allgather" in world.stats.collective_counts
        # All workers apply the same averaged sparse gradient.
        np.testing.assert_allclose(new_gradients[0], new_gradients[1], atol=1e-7)

    def test_qsgd_exchange_shapes(self, rng):
        sync, _ = make_sync("qsgd", world_size=2)
        gradients = make_gradients(rng, world_size=2, n=500)
        new_gradients, report = sync.exchange_batched(np.stack(gradients))
        assert new_gradients[0].shape == (500,)
        assert report.wire_bits_per_worker == pytest.approx(2.8 * 500 + 32)

    def test_gradient_count_must_match_world(self, rng):
        sync, _ = make_sync("dense", world_size=4)
        with pytest.raises(ValueError):
            sync.exchange_batched(np.stack(make_gradients(rng, world_size=3)))


class TestAccounting:
    def test_a2sgd_comm_time_far_below_dense(self, rng):
        sync_dense, world_dense = make_sync("dense", world_size=8)
        sync_a2sgd, world_a2sgd = make_sync("a2sgd", world_size=8)
        gradients = make_gradients(rng, world_size=8, n=2_000_000)
        sync_dense.exchange_batched(np.stack(gradients))
        sync_a2sgd.exchange_batched(np.stack(gradients))
        assert world_a2sgd.simulated_comm_time < world_dense.simulated_comm_time / 100

    def test_wire_bits_reported_per_algorithm(self, rng):
        n = 10_000
        gradients = make_gradients(rng, world_size=2, n=n)
        for name, expected in [("dense", 32 * n), ("a2sgd", 64),
                               ("topk", 32 * max(1, round(0.001 * n))),
                               ("qsgd", 2.8 * n + 32)]:
            sync, _ = make_sync(name, world_size=2)
            _, report = sync.exchange_batched(np.stack(gradients))
            assert report.wire_bits_per_worker == pytest.approx(expected), name

    def test_compression_time_is_the_analytic_price(self, rng):
        sync, _ = make_sync("topk", world_size=2, ratio=0.01)
        _, report = sync.exchange_batched(np.stack(make_gradients(rng, world_size=2)))
        assert report.compression_time_s == \
            CostModel().compression.compression_time("topk", 2000) > 0

    @pytest.mark.parametrize("degraded", [False, True], ids=["healthy", "degraded"])
    @pytest.mark.parametrize("algorithm", list_compressors())
    def test_every_compressor_is_priced_not_measured(self, rng, algorithm, degraded):
        """One worker's analytic price at ``n``, whoever is alive: the
        reported time is a function of (algorithm, n) only."""
        sync, world = make_sync(algorithm, world_size=4)
        if degraded:
            world.membership = Membership(4)
            world.membership.set_alive(1, False)
        for _ in range(2):
            _, report = sync.exchange_batched(
                np.stack(make_gradients(rng, world_size=4, n=600)))
            assert report.compression_time_s == \
                CostModel().compression.compression_time(algorithm, 600)

    def test_dense_model_average(self, rng):
        sync, _ = make_sync("a2sgd", world_size=3)
        params = [np.full(10, float(r), dtype=np.float32) for r in range(3)]
        averaged = sync.finalize(params)
        for result in averaged:
            np.testing.assert_allclose(result, np.ones(10), rtol=1e-6)


class TestBatchedExchange:
    @pytest.mark.parametrize("algorithm,kwargs", [
        ("dense", {}), ("a2sgd", {}), ("topk", {"ratio": 0.05}),
        ("randk", {"ratio": 0.05}), ("gaussiank", {"ratio": 0.05}),
        ("dgc", {"ratio": 0.05}), ("qsgd", {}),
    ])
    def test_exchange_batched_matches_loop(self, rng, algorithm, kwargs):
        """End-to-end through the world: matrix path ≡ per-rank loop path."""
        sync_loop, _ = make_sync(algorithm, world_size=4, **kwargs)
        sync_batch, _ = make_sync(algorithm, world_size=4, **kwargs)
        # Align the per-rank RNG streams of stochastic compressors.
        for rank, (a, b) in enumerate(zip(sync_loop.compressors, sync_batch.compressors)):
            if hasattr(a, "rng"):
                a.rng = np.random.default_rng(50 + rank)
                b.rng = np.random.default_rng(50 + rank)
        for _ in range(3):
            gradients = make_gradients(rng, world_size=4, n=600)
            G = np.stack(gradients)
            looped, report_loop = exchange_per_rank(sync_loop, [g.copy() for g in gradients])
            batched, report_batch = sync_batch.exchange_batched(G)
            np.testing.assert_array_equal(np.stack(looped), np.asarray(batched))
            assert report_loop.exchange == report_batch.exchange
            assert report_loop.wire_bits_per_worker == report_batch.wire_bits_per_worker

    @pytest.mark.parametrize("dead", [[3], [0], [1, 2]])
    @pytest.mark.parametrize("algorithm,kwargs", [
        ("a2sgd", {}), ("dense", {}), ("topk", {"ratio": 0.05}), ("qsgd", {}),
    ])
    def test_exchange_batched_matches_loop_under_degraded_membership(
            self, rng, algorithm, kwargs, dead):
        """Same equivalence with ranks out of membership: dead rows pass
        through untouched and dead ranks' compressor state stays frozen."""
        syncs = [make_sync(algorithm, world_size=4, **kwargs)[0] for _ in range(2)]
        for sync in syncs:
            for rank, compressor in enumerate(sync.compressors):
                if hasattr(compressor, "rng"):
                    compressor.rng = np.random.default_rng(50 + rank)
        sync_loop, sync_batch = syncs

        def dead_state(sync):
            states = []
            for compressor in (sync.compressors[r] for r in dead):
                rng = getattr(compressor, "rng", None)
                states.append((copy.deepcopy(compressor_state_arrays(compressor)),
                               rng and copy.deepcopy(rng.bit_generator.state)))
            return states

        def exchange_both():
            gradients = make_gradients(rng, world_size=4, n=600)
            G = np.stack(gradients)
            looped, report_loop = exchange_per_rank(sync_loop, [g.copy() for g in gradients])
            batched, report_batch = sync_batch.exchange_batched(G)
            np.testing.assert_array_equal(np.stack(looped), np.asarray(batched))
            assert report_loop.exchange == report_batch.exchange
            assert report_loop.wire_bits_per_worker == report_batch.wire_bits_per_worker
            return G, np.asarray(batched)

        exchange_both()             # healthy warm-up: residuals now exist
        for sync in syncs:
            sync.world.membership = Membership(4)
            for rank in dead:
                sync.world.membership.set_alive(rank, False)
        frozen = [dead_state(sync) for sync in syncs]
        for _ in range(3):
            G, batched = exchange_both()
            np.testing.assert_array_equal(batched[dead], G[dead])
        for sync, before in zip(syncs, frozen):
            for (arrays, rng_state), (now, now_rng) in zip(before, dead_state(sync)):
                assert rng_state == now_rng
                assert arrays.keys() == now.keys()
                for key in arrays:
                    np.testing.assert_array_equal(arrays[key], now[key])

    @pytest.mark.parametrize("algorithm,kwargs", [
        ("a2sgd", {}), ("dense", {}), ("topk", {"ratio": 0.05}), ("qsgd", {}),
    ])
    def test_all_alive_membership_is_the_healthy_path(self, rng, algorithm, kwargs,
                                                      monkeypatch):
        """An installed all-alive Membership ≡ no membership, bit for bit,
        and the healthy batched exchange returns decompress_batch's own
        array (identity — no gather, no copy)."""
        plain, _ = make_sync(algorithm, world_size=4, **kwargs)
        masked, world = make_sync(algorithm, world_size=4, **kwargs)
        plain_loop, _ = make_sync(algorithm, world_size=4, **kwargs)
        masked_loop, loop_world = make_sync(algorithm, world_size=4, **kwargs)
        world.membership = Membership(4)
        loop_world.membership = Membership(4)
        for sync in (plain, masked, plain_loop, masked_loop):
            for rank, compressor in enumerate(sync.compressors):
                if hasattr(compressor, "rng"):
                    compressor.rng = np.random.default_rng(50 + rank)
        produced = []
        batch = type(masked.compressors[0])
        original = batch.decompress_batch.__func__

        def recording(cls, *args):
            produced.append(original(cls, *args))
            return produced[-1]

        monkeypatch.setattr(batch, "decompress_batch", classmethod(recording))
        for _ in range(3):
            G = np.stack(make_gradients(rng, world_size=4, n=600))
            expected, report_plain = plain.exchange_batched(G.copy())
            result, report_masked = masked.exchange_batched(G.copy())
            assert result is produced[-1]
            np.testing.assert_array_equal(np.asarray(result), np.asarray(expected))
            assert report_plain.exchange == report_masked.exchange
            assert report_plain.wire_bits_per_worker == report_masked.wire_bits_per_worker
            np.testing.assert_array_equal(
                np.stack(exchange_per_rank(masked_loop, list(G.copy()))[0]),
                np.stack(exchange_per_rank(plain_loop, list(G.copy()))[0]))

    def test_exchange_batched_validates_shape(self, rng):
        sync, _ = make_sync("dense", world_size=3)
        with pytest.raises(ValueError):
            sync.exchange_batched(np.zeros((2, 10), dtype=np.float32))
        with pytest.raises(ValueError):
            sync.exchange_batched(np.zeros(10, dtype=np.float32))


class TestErrorFeedbackAcrossIterations:
    def test_topk_error_feedback_transmits_everything_eventually(self, rng):
        # Over many iterations the sum of applied updates approaches the sum
        # of the raw gradients (nothing is permanently lost).
        sync, _ = make_sync("topk", world_size=2, ratio=0.05)
        total_applied = np.zeros(400)
        total_raw = np.zeros(400)
        for _ in range(60):
            gradients = make_gradients(rng, world_size=2, n=400)
            new_gradients, _ = sync.exchange_batched(np.stack(gradients))
            total_applied += new_gradients[0]
            total_raw += np.mean(np.stack(gradients), axis=0)
        gap = np.linalg.norm(total_applied - total_raw) / np.linalg.norm(total_raw)
        assert gap < 0.6
