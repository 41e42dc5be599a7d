"""Tests for metrics and the iteration timeline."""

import numpy as np
import pytest

from repro.core.metrics import (
    TrainingMetrics,
    evaluate_classifier,
    evaluate_language_model,
    throughput_examples_per_second,
    top1_accuracy,
)
from repro.core.timeline import IterationTimeline, SyncReport
from repro.data import ArrayDataset, LanguageModelBatcher
from repro.models import build_model


class TestTop1Accuracy:
    def test_perfect_predictions(self):
        logits = np.eye(4) * 10
        assert top1_accuracy(logits, np.arange(4)) == 1.0

    def test_all_wrong(self):
        logits = np.zeros((3, 2))
        logits[:, 0] = 1.0
        assert top1_accuracy(logits, np.ones(3, dtype=int)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            top1_accuracy(np.zeros((3, 2)), np.zeros(4))


class TestEvaluators:
    def test_evaluate_classifier_range_and_mode_restored(self, rng):
        model = build_model("fnn3", "tiny")
        dataset = ArrayDataset(rng.standard_normal((40, 1, 8, 8)).astype(np.float32),
                               rng.integers(0, 10, size=40))
        value = evaluate_classifier(model, dataset, batch_size=16)
        assert 0.0 <= value <= 100.0
        assert model.training  # switched back to train mode

    def test_evaluate_classifier_max_examples(self, rng):
        model = build_model("fnn3", "tiny")
        dataset = ArrayDataset(rng.standard_normal((40, 1, 8, 8)).astype(np.float32),
                               rng.integers(0, 10, size=40))
        value = evaluate_classifier(model, dataset, batch_size=16, max_examples=8)
        assert 0.0 <= value <= 100.0

    def test_evaluate_language_model_positive_perplexity(self, rng):
        model = build_model("lstm_ptb", "tiny")
        batcher = LanguageModelBatcher(rng.integers(0, 200, size=2000), batch_size=4,
                                       seq_len=10)
        perplexity = evaluate_language_model(model, batcher, max_batches=5)
        assert perplexity > 1.0
        assert np.isfinite(perplexity)

    def test_evaluate_language_model_empty_raises(self, rng):
        model = build_model("lstm_ptb", "tiny")
        batcher = LanguageModelBatcher(rng.integers(0, 200, size=2000), batch_size=4,
                                       seq_len=10)
        with pytest.raises(ValueError):
            evaluate_language_model(model, batcher, max_batches=0)


class TestTrainingMetrics:
    def test_record_and_properties(self):
        metrics = TrainingMetrics(metric_name="top1")
        metrics.record_epoch(0, 2.0, 50.0, comm_time=0.1, compute_time=1.0)
        metrics.record_epoch(1, 1.0, 75.0, comm_time=0.2, compute_time=2.0)
        assert metrics.final_metric == 75.0
        assert metrics.best_metric == 75.0
        assert metrics.as_dict()["metric"] == [50.0, 75.0]

    def test_best_metric_for_perplexity_is_minimum(self):
        metrics = TrainingMetrics(metric_name="perplexity")
        metrics.record_epoch(0, 5.0, 300.0, 0, 0)
        metrics.record_epoch(1, 4.0, 120.0, 0, 0)
        metrics.record_epoch(2, 4.5, 150.0, 0, 0)
        assert metrics.best_metric == 120.0

    def test_empty_metrics_raise(self):
        with pytest.raises(ValueError):
            _ = TrainingMetrics().final_metric
        with pytest.raises(ValueError):
            _ = TrainingMetrics().best_metric

    def test_throughput_helper(self):
        assert throughput_examples_per_second(100, 2.0) == 50.0
        with pytest.raises(ValueError):
            throughput_examples_per_second(100, 0.0)


class TestIterationTimeline:
    def test_record_accumulates_components(self):
        timeline = IterationTimeline()
        timeline.record(0.5, SyncReport(compression_time_s=0.1, comm_time_s=0.2))
        timeline.record(0.5, SyncReport(compression_time_s=0.1, comm_time_s=0.2),
                        fault_s=0.3)
        assert timeline.iterations == 2
        assert timeline.compute_s == pytest.approx(1.0)
        assert timeline.compression_s == pytest.approx(0.2)
        assert timeline.communication_s == pytest.approx(0.4)
        assert timeline.fault_s == pytest.approx(0.3)
        assert timeline.total_s == pytest.approx(1.9)

    def test_empty_timeline(self):
        timeline = IterationTimeline()
        assert timeline.total_s == 0.0
        assert timeline.as_dict()["iterations"] == 0.0

    def test_sync_report_defaults(self):
        report = SyncReport()
        assert report.exchange == "allreduce"
        assert report.wire_bits_per_worker == 0.0
