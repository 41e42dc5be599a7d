"""Tests for the experiment runner and result containers."""

import numpy as np
import pytest

from repro.core import ExperimentResult, ExperimentSpec, run_experiment
from repro.core.experiment import run_algorithm_sweep
from repro.utils.serialization import save_json


def quick_config(**overrides) -> ExperimentSpec:
    base = dict(model="fnn3", preset="tiny", algorithm="a2sgd", world_size=2, epochs=2,
                max_iterations_per_epoch=5, batch_size=16, num_train=128, num_test=32, seed=0)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRunExperiment:
    def test_returns_complete_result(self):
        result = run_experiment(quick_config())
        assert isinstance(result, ExperimentResult)
        assert result.num_parameters > 0
        assert result.wire_bits_per_iteration == 64.0
        assert result.wall_time_s > 0
        assert len(result.metrics.epochs) == 2
        assert result.metric_name == "top1"

    def test_timeline_iterations_match_config(self):
        result = run_experiment(quick_config(epochs=2, max_iterations_per_epoch=4))
        assert result.timeline.iterations == 8

    def test_result_serializable_to_json(self, tmp_path):
        result = run_experiment(quick_config(epochs=1, max_iterations_per_epoch=2))
        payload = result.as_dict()
        path = save_json(payload, tmp_path / "result.json")
        assert path.exists()
        assert "metrics" in payload and "timeline" in payload

    def test_final_metric_property(self):
        result = run_experiment(quick_config(epochs=1, max_iterations_per_epoch=2))
        assert result.final_metric == result.metrics.metric[-1]

    def test_trainer_config_translation(self):
        config = quick_config(algorithm="topk", compressor_kwargs={"ratio": 0.01})
        trainer_config = config.to_trainer_config()
        assert trainer_config.algorithm == "topk"
        assert trainer_config.compressor_kwargs == {"ratio": 0.01}
        assert trainer_config.batch_size == 16


class TestAlgorithmSweep:
    def test_sweep_covers_all_algorithms(self):
        results = run_algorithm_sweep(quick_config(epochs=1, max_iterations_per_epoch=3),
                                      ["dense", "a2sgd"])
        assert set(results) == {"dense", "a2sgd"}
        assert results["a2sgd"].config.algorithm == "a2sgd"
        assert results["dense"].wire_bits_per_iteration > results["a2sgd"].wire_bits_per_iteration

    def test_sweep_results_share_configuration(self):
        results = run_algorithm_sweep(quick_config(epochs=1, max_iterations_per_epoch=2),
                                      ["dense", "a2sgd"])
        assert results["dense"].config.world_size == results["a2sgd"].config.world_size == 2
