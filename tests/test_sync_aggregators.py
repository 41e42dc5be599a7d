"""Aggregator unit + property tests: permutation invariance, mean agreement,
Byzantine robustness, and Weiszfeld convergence."""

import numpy as np
import pytest

from repro.comm.backend import CollectiveOp
from repro.sync import AGGREGATORS, get_aggregator
from repro.sync.aggregators import (
    CoordinateMedianAggregator,
    GeometricMedianAggregator,
    MeanAggregator,
    TrimmedMeanAggregator,
)
from repro.utils.rng import SeedSequenceFactory

ALL_NAMES = ["mean", "trimmed_mean", "coordinate_median", "geometric_median"]
ROBUST_NAMES = ["trimmed_mean", "coordinate_median", "geometric_median"]


class TestRegistry:
    def test_all_aggregators_registered(self):
        assert AGGREGATORS.list() == sorted(ALL_NAMES)

    def test_aliases_resolve(self):
        assert isinstance(get_aggregator("average"), MeanAggregator)
        assert isinstance(get_aggregator("median"), CoordinateMedianAggregator)
        assert isinstance(get_aggregator("geomed"), GeometricMedianAggregator)

    def test_kwargs_forwarded(self):
        agg = get_aggregator("trimmed_mean", trim_ratio=0.3)
        assert agg.trim_ratio == 0.3

    def test_only_mean_advertises_a_collective_op(self):
        assert MeanAggregator.collective_op is CollectiveOp.MEAN
        for name in ROBUST_NAMES:
            assert AGGREGATORS.get(name).collective_op is None
            assert AGGREGATORS.get(name).robust


class TestBasicCombine:
    def test_mean_matches_numpy(self, rng):
        X = rng.standard_normal((6, 40)).astype(np.float32)
        np.testing.assert_array_equal(MeanAggregator().combine(X), X.mean(axis=0))

    def test_requires_matrix(self, rng):
        for name in ALL_NAMES:
            with pytest.raises(ValueError):
                get_aggregator(name).combine(rng.standard_normal(8))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_identical_rows_reproduce_the_row(self, name, rng):
        """With zero disagreement every aggregator returns the common vector."""
        row = rng.standard_normal(33).astype(np.float32)
        X = np.tile(row, (8, 1))
        np.testing.assert_allclose(get_aggregator(name).combine(X), row,
                                   rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_single_contributor_is_identity(self, name, rng):
        row = rng.standard_normal(17).astype(np.float32)
        np.testing.assert_allclose(get_aggregator(name).combine(row[None]), row,
                                   rtol=1e-6, atol=1e-7)


class TestProperties:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_permutation_invariant(self, name, rng):
        """Shuffling the rank order never changes the combined vector."""
        X = rng.standard_normal((8, 64)).astype(np.float32)
        aggregator = get_aggregator(name)
        reference = aggregator.combine(X)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(8)
            np.testing.assert_allclose(aggregator.combine(X[perm]), reference,
                                       rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("name", ROBUST_NAMES)
    def test_agrees_with_mean_when_no_ranks_corrupted(self, name, rng):
        """On honest iid contributions the robust combines estimate the same
        center as the mean (statistical agreement, not bitwise)."""
        center = rng.standard_normal(48).astype(np.float32)
        X = center + 0.01 * rng.standard_normal((16, 48)).astype(np.float32)
        robust = get_aggregator(name).combine(X)
        mean = X.mean(axis=0)
        # The combines differ by at most a fraction of the per-rank noise.
        assert np.abs(robust - mean).max() < 0.01
        np.testing.assert_allclose(robust, mean, atol=0.01)

    def test_trimmed_mean_equals_mean_when_nothing_trimmed(self, rng):
        """k = floor(trim_ratio * P) = 0 degenerates to the exact mean."""
        X = rng.standard_normal((6, 20)).astype(np.float32)
        result = TrimmedMeanAggregator(trim_ratio=0.1).combine(X)  # k = 0
        np.testing.assert_array_equal(result, X.mean(axis=0))

    @pytest.mark.parametrize("name", ROBUST_NAMES)
    def test_bounded_under_corruption_where_mean_is_dragged(self, name, rng):
        """Two corrupted ranks drag the mean arbitrarily far; the robust
        aggregators stay near the honest center."""
        center = rng.standard_normal(32).astype(np.float32)
        X = center + 0.01 * rng.standard_normal((8, 32)).astype(np.float32)
        # Both Byzantine ranks push the same direction so the mean cannot
        # benefit from cancellation.
        X[1] = 1e4
        X[5] = 1e4
        honest = center
        robust = get_aggregator(name).combine(X)
        mean = X.mean(axis=0)
        assert np.abs(robust - honest).max() < 0.1
        assert np.abs(mean - honest).max() > 100.0

    def test_coordinate_median_is_exact_median(self, rng):
        X = rng.standard_normal((5, 12)).astype(np.float32)
        np.testing.assert_allclose(CoordinateMedianAggregator().combine(X),
                                   np.median(X, axis=0), rtol=1e-6)


class TestGeometricMedian:
    def test_minimizes_distance_sum_vs_mean(self, rng):
        """The Weiszfeld point has no larger a distance-sum objective than
        the mean (it is the minimizer of exactly that objective)."""
        X = rng.standard_normal((7, 10)).astype(np.float64)
        X[0] *= 50.0
        gm = GeometricMedianAggregator().combine(X)

        def objective(y):
            return float(np.linalg.norm(X - y, axis=1).sum())

        assert objective(gm) <= objective(X.mean(axis=0)) + 1e-9

    def test_collinear_points_converge_to_inner_point(self):
        """For 1-D style data the geometric median is the coordinate median."""
        X = np.array([[0.0], [1.0], [10.0]])
        gm = GeometricMedianAggregator().combine(X)
        assert abs(float(gm[0]) - 1.0) < 1e-3

    def test_handles_point_coincident_with_iterate(self):
        """The eps floor keeps Weiszfeld finite when the iterate sits on a
        data point (the mean of symmetric points is itself a point)."""
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        gm = GeometricMedianAggregator().combine(X)
        assert np.all(np.isfinite(gm))
        np.testing.assert_allclose(gm, [0.0, 0.0], atol=1e-6)

    def test_preserves_dtype(self, rng):
        X = rng.standard_normal((4, 6)).astype(np.float32)
        assert GeometricMedianAggregator().combine(X).dtype == np.float32

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            GeometricMedianAggregator(max_iterations=0)
        with pytest.raises(ValueError):
            GeometricMedianAggregator(tol=0.0)


class TestTrimmedMeanValidation:
    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            TrimmedMeanAggregator(trim_ratio=0.5)
        with pytest.raises(ValueError):
            TrimmedMeanAggregator(trim_ratio=-0.1)

    def test_trims_expected_extremes(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [100.0], [-100.0],
                      [1.5], [2.5]])
        # P=8, trim_ratio=0.25 -> k=2 per side: both outliers plus one honest
        # value per side are dropped.
        result = TrimmedMeanAggregator(trim_ratio=0.25).combine(X)
        ordered = np.sort(X[:, 0])[2:-2]
        assert abs(float(result[0]) - ordered.mean()) < 1e-12

    @pytest.mark.parametrize("ratio,P,expected", [
        (0.3, 10, 3),      # 0.3 * 10 == 2.999…96 in binary: int() said 2
        (0.29, 100, 29),   # 0.29 * 100 == 28.999…96: int() said 28
        (0.35, 20, 7),     # 0.35 * 20 == 6.999…99: int() said 6
        (0.1, 30, 3),
        (0.1, 7, 0),       # genuine sub-integer products still floor down
        (0.25, 8, 2),      # exact products stay exact (no overshoot)
        (0.4999, 10, 4),
        (0.2, 4, 0),       # 0.2 * 4 == 0.8 -> floor 0
    ])
    def test_trim_count_is_the_decimal_floor(self, ratio, P, expected):
        """k must be floor(trim_ratio · P) of the *decimal* ratio; binary
        float truncation used to land one below at awkward (ratio, P)."""
        aggregator = TrimmedMeanAggregator(trim_ratio=ratio)
        assert aggregator.trim_count(P) == expected
        # The combine agrees with an explicitly sorted-and-sliced reference.
        X = np.arange(P, dtype=np.float64)[:, None] * np.ones((1, 3))
        result = aggregator.combine(X)
        reference = (np.arange(P, dtype=np.float64)[expected:P - expected].mean()
                     if expected else np.arange(P, dtype=np.float64).mean())
        np.testing.assert_allclose(result, np.full(3, reference))

    def test_trim_count_near_half_never_empties_the_stack(self):
        """Ratios epsilon-close to 0.5 clamp so 2k < P always holds."""
        aggregator = TrimmedMeanAggregator(trim_ratio=0.49999999999999)
        for P in (2, 3, 4, 5, 8, 10, 11):
            k = aggregator.trim_count(P)
            assert 2 * k < P
            result = aggregator.combine(np.ones((P, 2)))
            np.testing.assert_array_equal(result, np.ones(2))


class TestCombineTimeModel:
    """Pin the priced combine-time formulas (satellite: O(P·m) gather +
    Weiszfeld iteration cost in the α–β/compute time model)."""

    RATE = 2.5e9

    def test_shared_rate_constant(self):
        for name in ALL_NAMES:
            agg = get_aggregator(name)
            assert agg.AGGREGATION_ELEMENTS_PER_SECOND == self.RATE

    @pytest.mark.parametrize("P,m", [(2, 1000), (8, 4522), (16, 1.0e6)])
    def test_mean_is_one_pass(self, P, m):
        assert get_aggregator("mean").combine_time_s(P, m) == \
            pytest.approx(P * m / self.RATE)

    @pytest.mark.parametrize("name", ["trimmed_mean", "coordinate_median"])
    @pytest.mark.parametrize("P,m", [(2, 1000), (8, 4522)])
    def test_sorting_aggregators_add_log_factor(self, name, P, m):
        expected = P * m * (1.0 + np.log2(max(P, 2))) / self.RATE
        assert get_aggregator(name).combine_time_s(P, m) == \
            pytest.approx(expected)

    def test_geometric_median_charges_weiszfeld_iterations(self):
        agg = get_aggregator("geometric_median")
        # Explicit iteration count: gather P·m plus 2·P·m per iteration.
        assert agg.combine_time_s(4, 1000, iterations=3) == \
            pytest.approx(4 * 1000 * (1.0 + 2.0 * 3) / self.RATE)
        # Before any combine ran, the bound defaults to max_iterations.
        assert agg.combine_time_s(4, 1000) == \
            pytest.approx(4 * 1000 * (1.0 + 2.0 * agg.max_iterations) / self.RATE)

    def test_geometric_median_defaults_to_measured_iterations(self):
        agg = get_aggregator("geometric_median")
        rng = np.random.default_rng(0)
        agg.combine(rng.normal(size=(4, 64)))
        executed = agg.last_iterations
        assert executed is not None and 1 <= executed <= agg.max_iterations
        assert agg.combine_time_s(4, 64) == \
            pytest.approx(4 * 64 * (1.0 + 2.0 * executed) / self.RATE)

    def test_exchange_report_charges_the_formula(self):
        """An allreduce exchange with a robust aggregator charges exactly
        combine_time_s for the off-wire (P, n) combine."""
        from repro.comm.inprocess import InProcessWorld
        from repro.compress.registry import COMPRESSORS
        from repro.sync import SyncSpec

        P = 4
        world = InProcessWorld(P)
        compressors = [COMPRESSORS.create("dense") for _ in range(P)]
        strategy = SyncSpec(strategy="allreduce",
                            aggregator="trimmed_mean").build(
                                world, compressors, SeedSequenceFactory(0))
        n = 256
        G = np.random.default_rng(1).normal(size=(P, n)).astype(np.float32)
        _, report = strategy.exchange_batched(G)
        assert report.aggregation_time_s == pytest.approx(
            strategy.aggregator.combine_time_s(P, n))

    def test_mean_on_allreduce_charges_no_offwire_combine(self):
        from repro.comm.inprocess import InProcessWorld
        from repro.compress.registry import COMPRESSORS
        from repro.sync import SyncSpec

        P = 4
        world = InProcessWorld(P)
        compressors = [COMPRESSORS.create("dense") for _ in range(P)]
        strategy = SyncSpec(strategy="allreduce").build(world, compressors, SeedSequenceFactory(0))
        G = np.ones((P, 64), dtype=np.float32)
        _, report = strategy.exchange_batched(G)
        assert report.aggregation_time_s == 0.0
