"""Tests for the collective algorithms and their traffic traces."""

import numpy as np
import pytest

from repro.comm import CollectiveOp, CollectiveTrace, allgather, allreduce_ring
from repro.comm.collectives import _ring_chunks
from tests.reference_collectives import allreduce_naive


def make_buffers(rng, world_size=4, n=101):
    return [rng.standard_normal(n).astype(np.float32) for _ in range(world_size)]


def reference_allreduce_ring(buffers, op=CollectiveOp.MEAN):
    """The ring allreduce's former body: every call builds its per-element
    owner plan from ``linspace`` / ``searchsorted`` / ``arange`` and folds
    with P − 1 fancy gathers.  The oracle for the cached chunk plan."""
    arrays = [np.asarray(b) for b in buffers]
    p = len(arrays)
    flat = np.stack([a.reshape(-1) for a in arrays]).astype(np.float64)
    n = flat.shape[1]
    if p == 1:
        result = flat[0] if op is not CollectiveOp.MEAN else flat[0] / 1.0
        return [result.reshape(arrays[0].shape).astype(arrays[0].dtype)]
    bounds = np.linspace(0, n, p + 1, dtype=np.int64)
    owner = np.searchsorted(bounds, np.arange(n), side="right") - 1
    np.clip(owner, 0, p - 1, out=owner)
    columns = np.arange(n)
    reduced = flat[owner, columns]
    for step in range(1, p):
        rows = owner + step
        rows[rows >= p] -= p
        contribution = flat[rows, columns]
        if op is CollectiveOp.MAX:
            np.maximum(reduced, contribution, out=reduced)
        else:
            reduced += contribution
    if op is CollectiveOp.MEAN:
        reduced = reduced / p
    return [reduced.reshape(arrays[0].shape).astype(arrays[0].dtype) for _ in range(p)]


def ring_cells():
    for p in range(1, 10):
        for n in sorted({1, 2, p - 1, p, p + 1, 4522}):
            yield p, n


class TestRingPlan:
    """The cached chunk plan keeps every element's addition order: the ring
    equals its former per-call-plan body bit for bit."""

    @pytest.mark.parametrize("op", list(CollectiveOp), ids=lambda op: op.name)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p, n", list(ring_cells()))
    def test_ring_equals_the_former_ring(self, p, n, dtype, op):
        rng = np.random.default_rng(p * 10_000 + n)
        # Magnitudes spread over six decades, so any change in the order the
        # contributions are added changes the rounded sums.
        buffers = [(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, size=n)
                    ).astype(dtype) for _ in range(p)]
        results, _ = allreduce_ring(buffers, op)
        expected = reference_allreduce_ring(buffers, op)
        assert len(results) == p
        for got, want in zip(results, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_plan_is_built_once_per_shape_and_holds_o_of_p_integers(self, rng):
        buffers = make_buffers(rng, world_size=7, n=4523)
        allreduce_ring(buffers)
        before = _ring_chunks.cache_info()
        for _ in range(3):
            allreduce_ring(buffers)
        after = _ring_chunks.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 3
        plan = _ring_chunks(7, 4523)
        assert len(plan) == 7 and all(len(chunk) == 3 for chunk in plan)
        # Fewer elements than ranks: only the non-empty chunks are planned.
        assert [c for c, _, _ in _ring_chunks(8, 2)] == [3, 7]


class TestAllreduceRing:
    @pytest.mark.parametrize("world_size", [1, 2, 3, 4, 7, 8])
    def test_mean_matches_numpy(self, rng, world_size):
        buffers = make_buffers(rng, world_size)
        results, _ = allreduce_ring(buffers, CollectiveOp.MEAN)
        expected = np.mean(np.stack(buffers), axis=0)
        for result in results:
            np.testing.assert_allclose(result, expected, rtol=1e-5, atol=1e-6)

    def test_sum_matches_numpy(self, rng):
        buffers = make_buffers(rng, 5)
        results, _ = allreduce_ring(buffers, CollectiveOp.SUM)
        np.testing.assert_allclose(results[0], np.sum(np.stack(buffers), axis=0),
                                   rtol=1e-5, atol=1e-5)

    def test_max_matches_numpy(self, rng):
        buffers = make_buffers(rng, 3)
        results, _ = allreduce_ring(buffers, CollectiveOp.MAX)
        np.testing.assert_allclose(results[0], np.max(np.stack(buffers), axis=0), rtol=1e-6)

    def test_all_ranks_receive_identical_results(self, rng):
        results, _ = allreduce_ring(make_buffers(rng, 6), CollectiveOp.MEAN)
        for r in results[1:]:
            np.testing.assert_array_equal(r, results[0])

    def test_matches_naive_reference(self, rng):
        buffers = make_buffers(rng, 4, n=257)
        ring, _ = allreduce_ring(buffers, CollectiveOp.MEAN)
        naive, _ = allreduce_naive(buffers, CollectiveOp.MEAN)
        np.testing.assert_allclose(ring[0], naive[0], rtol=1e-5, atol=1e-6)

    def test_preserves_shape_and_dtype(self, rng):
        buffers = [rng.standard_normal((3, 5)).astype(np.float32) for _ in range(3)]
        results, _ = allreduce_ring(buffers, CollectiveOp.MEAN)
        assert results[0].shape == (3, 5)
        assert results[0].dtype == np.float32

    def test_payload_smaller_than_world_size(self, rng):
        # Two scalars reduced across 4 ranks — A2SGD's exact situation.
        buffers = [np.array([float(i), float(-i)]) for i in range(4)]
        results, _ = allreduce_ring(buffers, CollectiveOp.MEAN)
        np.testing.assert_allclose(results[0], [1.5, -1.5])

    def test_trace_structure(self, rng):
        buffers = make_buffers(rng, 4, n=100)
        _, trace = allreduce_ring(buffers, CollectiveOp.MEAN)
        assert trace.kind == "allreduce_ring"
        assert trace.world_size == 4
        assert trace.rounds == 2 * 3
        assert trace.message_bytes == pytest.approx(400.0)
        assert trace.bytes_sent_per_rank == pytest.approx(2 * 3 / 4 * 400.0)

    def test_single_rank_trace_is_free(self, rng):
        _, trace = allreduce_ring(make_buffers(rng, 1), CollectiveOp.MEAN)
        assert trace.rounds == 0
        assert trace.bytes_sent_per_rank == 0.0

    def test_mismatched_shapes_rejected(self, rng):
        with pytest.raises(ValueError):
            allreduce_ring([np.zeros(3), np.zeros(4)])

    def test_empty_participant_list_rejected(self):
        with pytest.raises(ValueError):
            allreduce_ring([])


class TestAllgather:
    def test_every_rank_gets_all_contributions(self, rng):
        buffers = make_buffers(rng, 3, n=11)
        gathered, _ = allgather(buffers)
        assert len(gathered) == 3
        for per_rank in gathered:
            assert len(per_rank) == 3
            for original, received in zip(buffers, per_rank):
                np.testing.assert_array_equal(original, received)

    def test_results_cannot_corrupt_contributions(self, rng):
        """Gathered payloads are staged read-only: a rank can neither mutate
        another rank's view nor the original contribution through them."""
        buffers = make_buffers(rng, 2, n=5)
        gathered, _ = allgather(buffers)
        with pytest.raises(ValueError):
            gathered[0][0][...] = 99.0
        assert not np.allclose(buffers[0], 99.0)

    def test_shared_staging_buffer_one_copy_per_contributor(self, rng):
        """The seed gave each rank private copies (O(P²·n) memcopy); now every
        rank holds views of the same staged array — one copy per contributor,
        detached from the contributor's own buffer."""
        buffers = make_buffers(rng, 4, n=16)
        gathered, _ = allgather(buffers)
        for contributor in range(4):
            staged = gathered[0][contributor]
            assert all(gathered[rank][contributor] is staged for rank in range(4))
            assert not staged.flags.writeable
            assert staged.base is None and staged is not buffers[contributor]
        # Each rank's list is still private: reordering one must not leak.
        gathered[0][0], gathered[0][1] = gathered[0][1], gathered[0][0]
        assert gathered[1][0] is gathered[0][1]

    def test_shared_staging_trace_matches_copy_semantics(self, rng):
        """Byte accounting is a property of the modelled ring, not of how the
        simulation moves memory — the trace must be unchanged by staging."""
        buffers = make_buffers(rng, 4, n=10)
        _, trace = allgather(buffers)
        assert trace.kind == "allgather"
        assert trace.world_size == 4
        assert trace.rounds == 3
        assert trace.message_bytes == pytest.approx(40.0)
        assert trace.bytes_sent_per_rank == pytest.approx(3 * 40.0)

    def test_mixed_dtypes_rejected_up_front(self, rng):
        buffers = [rng.standard_normal(5).astype(np.float32),
                   rng.standard_normal(5).astype(np.float64)]
        with pytest.raises(ValueError, match="rank 1: float64"):
            allgather(buffers)

    def test_equal_dtypes_accepted(self, rng):
        buffers = [rng.standard_normal(5).astype(np.float32) for _ in range(3)]
        gathered, _ = allgather(buffers)
        assert all(a.dtype == np.float32 for a in gathered[0])

    def test_variable_length_contributions(self, rng):
        buffers = [rng.standard_normal(5), rng.standard_normal(9)]
        gathered, trace = allgather(buffers)
        assert gathered[0][1].shape == (9,)
        assert trace.message_bytes == pytest.approx(np.mean([b.nbytes for b in buffers]))

    def test_trace_bytes(self, rng):
        buffers = make_buffers(rng, 4, n=10)
        _, trace = allgather(buffers)
        assert trace.rounds == 3
        assert trace.bytes_sent_per_rank == pytest.approx(3 * 40.0)


class TestCollectiveOp:
    def test_combine_operations(self):
        arrays = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        np.testing.assert_allclose(CollectiveOp.SUM.combine(arrays), [4.0, 6.0])
        np.testing.assert_allclose(CollectiveOp.MEAN.combine(arrays), [2.0, 3.0])
        np.testing.assert_allclose(CollectiveOp.MAX.combine(arrays), [3.0, 4.0])

    def test_combine_empty_raises(self):
        with pytest.raises(ValueError):
            CollectiveOp.SUM.combine([])
