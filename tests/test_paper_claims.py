"""Cross-module integration tests tied to specific claims in the paper.

Each test names the paper section/figure it checks.  These are the
"shape" checks: orderings and qualitative behaviours the reproduction must
preserve even though absolute numbers differ from the authors' testbed.
"""

import numpy as np
import pytest

from repro.analysis import GradientDistributionTracker, empirical_gradient_bound_holds
from repro.analysis.convergence import track_gradient_bound_samples
from repro.compress import get_compressor
from repro.compress.base import sparsity_k
from repro.core import DistributedTrainer, TrainerConfig
from repro.core.algorithm1 import QuadraticProblem, a2sgd_quadratic_descent
from repro.core.cost_model import CostModel
from repro.core.flatten import flatten_gradients
from repro.tensor import Tensor, functional as F
from repro.utils.timer import median_time


class TestFigure1GradientDistribution:
    """§3 / Figure 1: gradients are bell-shaped around zero and concentrate."""

    def test_gradient_distribution_concentrates_during_training(self):
        from repro.models import build_model
        from repro.data import get_dataset, DataLoader
        from repro.optim import SGD

        model = build_model("fnn3", "tiny", seed=0)
        train, _ = get_dataset("mnist_tiny", num_train=256, num_test=64)
        loader = DataLoader(train, batch_size=32, rng=np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        tracker = GradientDistributionTracker(snapshot_iterations=(0, 30))

        iteration = 0
        while iteration <= 30:
            for inputs, targets in loader:
                model.zero_grad()
                loss = F.cross_entropy(model(Tensor(inputs)), targets)
                loss.backward()
                tracker.observe(flatten_gradients(model))
                optimizer.step()
                iteration += 1
                if iteration > 30:
                    break

        snapshots = tracker.snapshots
        assert set(snapshots) == {0, 30}
        # Roughly symmetric around zero at the start...
        assert 0.25 < snapshots[0]["positive_fraction"] < 0.75
        # ...and the distribution tightens as training progresses.
        assert snapshots[30]["std"] < snapshots[0]["std"]

    def test_histogram_mass_concentrated_near_zero(self, rng):
        gradient = rng.standard_normal(50_000) * 0.01
        tracker = GradientDistributionTracker(snapshot_iterations=(0,))
        tracker.observe(gradient)
        snapshot = tracker.snapshots[0]
        centre = len(snapshot["counts"]) // 2
        central_mass = snapshot["counts"][centre - 5:centre + 6].sum()
        assert central_mass > 0.3 * snapshot["counts"].sum()


class TestFigure2ComputationTime:
    """§3 / Figure 2: A2SGD and Gaussian-K are far cheaper to compute than
    QSGD.  The paper's Top-K gap is not reproduced: an exact CPU top-k from a
    sampled floor costs about what A2SGD's pass does."""

    N = 300_000

    @classmethod
    def gradient(cls):
        return (np.random.default_rng(0).standard_normal(cls.N) * 0.01).astype(np.float32)

    @pytest.fixture(scope="class")
    def measured_times(self):
        gradient = self.gradient()
        times = {}
        for name in ("a2sgd", "gaussiank", "topk", "qsgd"):
            compressor = get_compressor(name)
            times[name] = median_time(lambda c=compressor: c.compress(gradient), repeats=5)
        return times

    def test_qsgd_is_the_most_expensive(self, measured_times):
        assert measured_times["qsgd"] == max(measured_times.values())

    def test_a2sgd_cheaper_than_qsgd(self, measured_times):
        # The honest measured claim on our CPU kernels is "cheaper": since the
        # bucketed quantization was vectorized, QSGD is no longer orders of
        # magnitude slower than A2SGD here.  The paper's O(n²) reference
        # implementation (Table 2) is charged analytically by CostModel, which
        # is what the Figure 2 benchmark reproduces.
        assert measured_times["a2sgd"] < 0.8 * measured_times["qsgd"]

    def test_topk_partitions_candidates_not_the_row(self, monkeypatch):
        # Top-K's exact selection (compress/base.py::top_k_indices) partitions
        # only the candidates above a floor sampled from the row, so its cost
        # is a few O(n) passes, as A2SGD's is: measured topk/a2sgd reads
        # 0.75–1.07 at this size (2-core host, one BLAS thread), against ≈ 3×
        # with the full-row partition, and A2SGD < Top-K is no measured
        # ordering.  What is pinned is the selection's size: O(k) entries, not
        # the row.  The paper's GPU-cost ordering A2SGD < Top-K is priced by
        # CostModel (tests/test_core_cost_model.py).
        partitioned = []
        real = np.argpartition

        def spy(a, kth, *args, **kwargs):
            partitioned.append(np.asarray(a).size)
            return real(a, kth, *args, **kwargs)

        monkeypatch.setattr(np, "argpartition", spy)
        compressor = get_compressor("topk")
        compressor.compress(self.gradient())
        k = sparsity_k(self.N, compressor.ratio)
        assert partitioned and k <= max(partitioned) <= 20 * k

    def test_gaussiank_and_a2sgd_same_order_of_magnitude(self, measured_times):
        ratio = measured_times["gaussiank"] / measured_times["a2sgd"]
        assert 0.2 < ratio < 5.0


class TestTheorem1Assumption3:
    """§3.2: the gradient-bound assumption holds along an A2SGD trajectory."""

    def test_assumption3_bound_exists_on_quadratic_run(self):
        problem = QuadraticProblem(dimension=20, rows_per_worker=100, world_size=4, seed=1)
        rng = np.random.default_rng(0)
        weights, gradients = [], []
        w = np.zeros(problem.dimension)
        for t in range(100):
            rows = rng.integers(0, problem.rows_per_worker, size=16)
            g = problem.gradient(0, w, rows)
            weights.append(w.copy())
            gradients.append(g)
            w = w - 0.05 * g
        norms, distances = track_gradient_bound_samples(weights, gradients, problem.optimum)
        assert empirical_gradient_bound_holds(norms, distances)

    def test_a2sgd_matches_dense_within_factor_on_quadratic(self):
        problem = QuadraticProblem(dimension=25, rows_per_worker=120, world_size=4, seed=3)
        from repro.core.algorithm1 import dense_quadratic_descent
        dense = dense_quadratic_descent(problem, iterations=350, base_lr=0.05)
        a2sgd = a2sgd_quadratic_descent(problem, iterations=350, base_lr=0.05)
        # "Converges similarly like the default distributed SGD algorithm".
        assert a2sgd.final_distance < max(3.0 * dense.final_distance, 0.5)


class TestSection43Complexities:
    """§4.3 / Table 2: communication and computation complexity columns."""

    @pytest.mark.parametrize("model,n", [("fnn3", 199_210), ("vgg16", 14_728_266),
                                         ("resnet20", 269_722), ("lstm_ptb", 66_034_000)])
    def test_a2sgd_traffic_is_64_bits_for_every_model(self, model, n):
        assert get_compressor("a2sgd").wire_bits(n) == 64.0

    def test_dense_traffic_equals_32n_for_lstm(self):
        assert get_compressor("dense").wire_bits(66_034_000) == 32 * 66_034_000

    def test_compression_factor_exceeds_million_for_large_models(self):
        n = 66_034_000
        factor = get_compressor("dense").wire_bits(n) / get_compressor("a2sgd").wire_bits(n)
        assert factor > 1e6


class TestSection44ExecutionTime:
    """§4.4 / Figures 4-5: iteration and total time shapes."""

    @pytest.fixture(scope="class")
    def cost_model(self):
        return CostModel()

    def test_small_models_show_immaterial_differences(self, cost_model):
        for model in ("fnn3", "resnet20"):
            dense = cost_model.iteration_time(model, "dense", 8)
            a2sgd = cost_model.iteration_time(model, "a2sgd", 8)
            gaussiank = cost_model.iteration_time(model, "gaussiank", 8)
            assert abs(a2sgd - dense) / dense < 0.25
            assert abs(gaussiank - dense) / dense < 0.25

    def test_large_models_favor_a2sgd_and_gaussiank(self, cost_model):
        for model in ("vgg16", "lstm_ptb"):
            times = {name: cost_model.iteration_time(model, name, 8)
                     for name in ("dense", "topk", "qsgd", "gaussiank", "a2sgd")}
            assert times["a2sgd"] < times["dense"]
            assert times["gaussiank"] < times["dense"]
            assert times["qsgd"] == max(times.values())

    def test_iteration_time_increases_with_workers_for_dense(self, cost_model):
        """More workers -> more collective time per iteration (§4.4 last paragraph)."""
        comm = [cost_model.communication_time("dense", "lstm_ptb", p) for p in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(comm, comm[1:]))

    def test_total_time_headline_ratios_for_lstm(self, cost_model):
        """A2SGD beats Top-K and QSGD on LSTM-PTB total time by large factors (§1)."""
        a2sgd = cost_model.total_training_time("lstm_ptb", "a2sgd", 16)
        topk = cost_model.total_training_time("lstm_ptb", "topk", 16)
        qsgd = cost_model.total_training_time("lstm_ptb", "qsgd", 16)
        dense = cost_model.total_training_time("lstm_ptb", "dense", 16)
        assert topk / a2sgd > 2.0          # paper: 3.2x
        assert qsgd / a2sgd > 10.0         # paper: 23.2x
        assert dense / a2sgd > 1.3         # paper: 1.72x


class TestFigure3ConvergenceOrdering:
    """Figure 3: A2SGD tracks dense SGD's accuracy more closely than QSGD."""

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for algorithm in ("dense", "a2sgd", "qsgd"):
            config = TrainerConfig(model="fnn3", preset="tiny", algorithm=algorithm,
                                   world_size=4, epochs=3, seed=0, batch_size=16,
                                   max_iterations_per_epoch=10, num_train=384, num_test=96)
            out[algorithm] = DistributedTrainer(config).train()
        return out

    def test_all_algorithms_learn(self, results):
        for algorithm, metrics in results.items():
            assert metrics.final_metric > 15.0, algorithm

    def test_a2sgd_closer_to_dense_than_qsgd(self, results):
        dense = results["dense"].final_metric
        gap_a2sgd = abs(dense - results["a2sgd"].final_metric)
        gap_qsgd = abs(dense - results["qsgd"].final_metric)
        assert gap_a2sgd <= gap_qsgd + 5.0
