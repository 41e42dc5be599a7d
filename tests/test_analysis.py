"""Tests for gradient statistics, convergence diagnostics, scaling and reporting."""

import numpy as np
import pytest

from repro.analysis import (
    GradientDistributionTracker,
    assumption3_bound_estimate,
    empirical_gradient_bound_holds,
    format_figure_series,
    format_table,
    gradient_histogram,
    reconstruction_preserves_mean,
    render_convergence_figure,
    render_iteration_time_figure,
    render_table2,
    scaling_efficiency_table,
    speedup_curve,
    variance_ratio,
)
from repro.analysis.convergence import track_gradient_bound_samples
from repro.core.cost_model import CostModel


class TestGradientHistogram:
    def test_histogram_counts_sum_to_in_range_samples(self, rng):
        g = rng.standard_normal(10_000) * 0.01
        snap = gradient_histogram(g, bins=31)
        assert snap["counts"].sum() <= 10_000
        assert snap["counts"].sum() > 9_000
        assert len(snap["edges"]) == 32

    def test_statistics_match_numpy(self, rng):
        g = rng.standard_normal(5_000) * 0.02
        snap = gradient_histogram(g)
        assert snap["mean"] == pytest.approx(g.mean(), abs=1e-6)
        assert snap["std"] == pytest.approx(g.std(), rel=1e-6)
        assert snap["mu_plus"] == pytest.approx(g[g >= 0].mean(), rel=1e-6)
        assert snap["mu_minus"] == pytest.approx(np.abs(g[g < 0]).mean(), rel=1e-6)

    def test_empty_gradient_raises(self):
        with pytest.raises(ValueError):
            gradient_histogram(np.array([]))

    def test_explicit_range(self, rng):
        snap = gradient_histogram(rng.standard_normal(100), bins=11, value_range=(-1, 1))
        assert snap["edges"][0] == pytest.approx(-1.0)
        assert snap["edges"][-1] == pytest.approx(1.0)

    def test_tracker_snapshots_only_requested_iterations(self, rng):
        tracker = GradientDistributionTracker(snapshot_iterations=(0, 2))
        for _ in range(4):
            tracker.observe(rng.standard_normal(100))
        assert set(tracker.snapshots) == {0, 2}
        assert tracker.iterations_seen == 4

    def test_tracker_progressions(self, rng):
        tracker = GradientDistributionTracker(snapshot_iterations=(0, 1, 2))
        for scale in (1.0, 0.5, 0.1):
            tracker.observe(rng.standard_normal(2_000) * scale)
        stds = [s for _, s in tracker.concentration_progression()]
        assert stds[0] > stds[-1]
        near_zero = tracker.near_zero_progression()
        assert len(near_zero) == 3


class TestConvergenceDiagnostics:
    def test_assumption3_fit_covers_samples(self, rng):
        distances = rng.uniform(0.1, 10.0, size=50)
        norms = 2.0 + 3.0 * distances + rng.uniform(0, 0.5, size=50)
        a, b = assumption3_bound_estimate(norms, distances)
        assert np.all(norms <= a + b * distances + 1e-9)

    def test_assumption3_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            assumption3_bound_estimate([1.0], [1.0, 2.0])

    def test_empirical_bound_holds_for_bounded_gradients(self, rng):
        norms = rng.uniform(0, 5, size=100)
        distances = rng.uniform(0, 10, size=100)
        assert empirical_gradient_bound_holds(norms, distances)

    def test_empirical_bound_fails_for_absurd_constants(self):
        assert not empirical_gradient_bound_holds([1e12], [1e-9], max_constant=1e6)

    def test_variance_ratio(self, rng):
        g = rng.standard_normal(1000)
        assert variance_ratio(g, g) == pytest.approx(1.0)
        assert variance_ratio(g, np.zeros_like(g)) == pytest.approx(0.0)
        assert variance_ratio(np.zeros(10), np.zeros(10)) == 1.0

    def test_reconstruction_preserves_mean_small_gap(self, rng):
        gradients = [rng.standard_normal(2000) * 0.01 for _ in range(4)]
        gap = reconstruction_preserves_mean(gradients)
        assert 0.0 <= gap < 0.35

    def test_track_gradient_bound_samples(self, rng):
        weights = [rng.standard_normal(5) for _ in range(3)]
        gradients = [rng.standard_normal(5) for _ in range(3)]
        optimum = np.zeros(5)
        norms, distances = track_gradient_bound_samples(weights, gradients, optimum)
        assert len(norms) == len(distances) == 3
        assert all(v >= 0 for v in norms + distances)


class TestScaling:
    @pytest.fixture(scope="class")
    def cost_model(self):
        return CostModel()

    def test_scaling_table_structure(self, cost_model):
        table = scaling_efficiency_table(cost_model, models=("fnn3", "lstm_ptb"),
                                         algorithms=("dense", "a2sgd"))
        assert set(table) == {"dense", "a2sgd"}
        assert set(table["a2sgd"]) == {"fnn3", "lstm_ptb"}
        assert all(v > 0 for v in table["a2sgd"].values())

    def test_speedup_curve_monotone(self, cost_model):
        speedups = speedup_curve(cost_model, "vgg16", "a2sgd", world_sizes=(2, 4, 8))
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[-1] > speedups[0]


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        text = format_table(["name", "value"], [["a2sgd", 1.23456], ["dense", 2.0]],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a2sgd" in text and "1.235" in text

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_format_figure_series(self):
        text = format_figure_series({"dense": [1.0, 2.0], "a2sgd": [0.5, 0.6]},
                                    x_values=[2, 4], x_label="workers", title="Figure X")
        assert "workers" in text and "dense" in text and "a2sgd" in text
        assert "Figure X" in text

    def test_render_table2(self):
        text = render_table2(
            complexities={"dense": "O(1)", "a2sgd": "O(n)"},
            traffic_bits={"dense": "32n", "a2sgd": "64"},
            scaling={"dense": {"fnn3": 1.8}, "a2sgd": {"fnn3": 1.9}},
            models=("fnn3",))
        assert "Table 2" in text
        assert "a2sgd" in text and "O(n)" in text

    def test_render_figures(self):
        conv = render_convergence_figure({"dense": [10, 50]}, epochs=[1, 2],
                                         metric_name="top1", model="fnn3", world_size=8)
        assert "Figure 3" in conv
        iter_fig = render_iteration_time_figure({"dense": [0.1, 0.2]}, world_sizes=[2, 4],
                                                model="vgg16")
        assert "Figure 4" in iter_fig
