"""Tests for the analytic cost model behind Figures 4/5 and Table 2."""

import numpy as np
import pytest

from repro.comm import NetworkModel, ethernet_10gbps, infiniband_100gbps
from repro.core.cost_model import CostModel


@pytest.fixture(scope="module")
def cost_model():
    return CostModel()


class TestTable2Columns(object):
    def test_model_parameters_match_table1(self, cost_model):
        assert cost_model.model_parameters("fnn3") == 199_210
        assert cost_model.model_parameters("lstm_ptb") == 66_034_000
        with pytest.raises(KeyError):
            cost_model.model_parameters("bert")

    def test_communication_bits_column(self, cost_model):
        n = cost_model.model_parameters("lstm_ptb")
        assert cost_model.communication_bits("dense", n) == 32 * n
        assert cost_model.communication_bits("a2sgd", n) == 64
        assert cost_model.communication_bits("qsgd", n) == pytest.approx(2.8 * n + 32)

    def test_computation_complexity_column(self, cost_model):
        assert cost_model.computation_complexity("a2sgd", 10**6) == "O(n)"
        assert cost_model.computation_complexity("dense", 10**6) == "O(1)"


class TestIterationTime:
    def test_compute_time_shrinks_with_workers(self, cost_model):
        t2 = cost_model.compute_time("vgg16", 2)
        t8 = cost_model.compute_time("vgg16", 8)
        assert t8 < t2

    def test_lstm_compute_includes_sequence_factor(self, cost_model):
        lstm = cost_model.compute_time("lstm_ptb", 8)
        vgg = cost_model.compute_time("vgg16", 8)
        # LSTM-PTB has ~4.5x VGG's parameters and a 35-step unroll.
        assert lstm > vgg

    def test_breakdown_components_positive(self, cost_model):
        breakdown = cost_model.iteration_breakdown("vgg16", "a2sgd", 8)
        assert breakdown.compute_s > 0
        assert breakdown.communication_s > 0
        assert breakdown.compression_s >= 0
        assert breakdown.total_s == pytest.approx(
            breakdown.compute_s + breakdown.compression_s + breakdown.communication_s)

    def test_a2sgd_comm_time_negligible_even_for_largest_model(self, cost_model):
        breakdown = cost_model.iteration_breakdown("lstm_ptb", "a2sgd", 16)
        assert breakdown.communication_s < 1e-4

    def test_dense_comm_dominates_for_large_models(self, cost_model):
        dense = cost_model.iteration_breakdown("lstm_ptb", "dense", 16)
        a2sgd = cost_model.iteration_breakdown("lstm_ptb", "a2sgd", 16)
        assert dense.communication_s > 100 * a2sgd.communication_s

    def test_figure4_shape_large_models(self, cost_model):
        """For VGG-16 and LSTM-PTB, A2SGD and Gaussian-K beat Dense, Top-K and QSGD."""
        for model in ("vgg16", "lstm_ptb"):
            times = {a: cost_model.iteration_time(model, a, 8)
                     for a in ("dense", "topk", "qsgd", "gaussiank", "a2sgd")}
            assert times["a2sgd"] < times["dense"]
            assert times["a2sgd"] < times["qsgd"]
            assert times["gaussiank"] < times["qsgd"]
            assert times["qsgd"] == max(times.values())

    def test_figure4_shape_small_models(self, cost_model):
        """For FNN-3/ResNet-20 the algorithms are within a small factor of Dense."""
        times = {a: cost_model.iteration_time("fnn3", a, 8)
                 for a in ("dense", "gaussiank", "a2sgd")}
        assert times["a2sgd"] < 2.0 * times["dense"]
        assert times["gaussiank"] < 2.5 * times["dense"]

    def test_comm_time_grows_with_worker_count(self, cost_model):
        t2 = cost_model.communication_time("dense", "vgg16", 2)
        t16 = cost_model.communication_time("dense", "vgg16", 16)
        assert t16 > t2

    def test_slower_network_increases_dense_gap(self):
        fast = CostModel(network=infiniband_100gbps())
        slow = CostModel(network=ethernet_10gbps())
        gap_fast = (fast.iteration_time("lstm_ptb", "dense", 8)
                    / fast.iteration_time("lstm_ptb", "a2sgd", 8))
        gap_slow = (slow.iteration_time("lstm_ptb", "dense", 8)
                    / slow.iteration_time("lstm_ptb", "a2sgd", 8))
        assert gap_slow > gap_fast


class TestTotalTimeAndScaling:
    def test_total_time_uses_paper_epochs(self, cost_model):
        single_epoch = cost_model.total_training_time("fnn3", "a2sgd", 8, epochs=1)
        paper_epochs = cost_model.total_training_time("fnn3", "a2sgd", 8)
        assert paper_epochs == pytest.approx(30 * single_epoch, rel=1e-6)

    def test_total_time_decreases_with_more_workers(self, cost_model):
        """Figure 5's shape: data parallelism reduces total time for every algorithm."""
        for algorithm in ("dense", "a2sgd", "gaussiank"):
            times = [cost_model.total_training_time("vgg16", algorithm, p)
                     for p in (2, 4, 8, 16)]
            assert all(a > b for a, b in zip(times, times[1:])), algorithm

    def test_a2sgd_total_time_beats_dense_for_lstm(self, cost_model):
        """The headline 1.72x-vs-dense improvement direction for LSTM-PTB."""
        dense = cost_model.total_training_time("lstm_ptb", "dense", 16)
        a2sgd = cost_model.total_training_time("lstm_ptb", "a2sgd", 16)
        assert a2sgd < dense
        assert dense / a2sgd > 1.1

    def test_a2sgd_total_time_beats_qsgd_and_topk_for_lstm(self, cost_model):
        """Paper: 3.2x vs Top-K and 23.2x vs QSGD on LSTM-PTB (direction + order)."""
        qsgd = cost_model.total_training_time("lstm_ptb", "qsgd", 16)
        topk = cost_model.total_training_time("lstm_ptb", "topk", 16)
        a2sgd = cost_model.total_training_time("lstm_ptb", "a2sgd", 16)
        assert a2sgd < topk < qsgd
        assert qsgd / a2sgd > topk / a2sgd

    def test_throughput_definition(self, cost_model):
        throughput = cost_model.throughput("resnet20", "a2sgd", 8)
        assert throughput == pytest.approx(128 / cost_model.iteration_time("resnet20", "a2sgd", 8))

    def test_scaling_efficiency_reference_is_dense_at_two(self, cost_model):
        dense_at_2 = cost_model.scaling_efficiency("resnet20", "dense", world_size=2)
        assert dense_at_2 == pytest.approx(1.0)

    def test_scaling_efficiency_table_shape(self, cost_model):
        """Table 2 last column: A2SGD and Gaussian-K scale best; QSGD worst for LSTM."""
        effs = {a: cost_model.scaling_efficiency("lstm_ptb", a, world_size=8)
                for a in ("dense", "qsgd", "topk", "gaussiank", "a2sgd")}
        assert effs["a2sgd"] > effs["dense"]
        assert effs["gaussiank"] > effs["dense"]
        assert effs["qsgd"] == min(effs.values())
        assert effs["a2sgd"] > 1.0
