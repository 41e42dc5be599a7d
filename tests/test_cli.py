"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.compress import get_compressor, list_compressors
from tests.test_compress_registry import decoded_payload


class TestCLIParsing:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_run_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["run", "--model", "alexnet"])

    def test_run_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "zip"])

    @pytest.mark.parametrize("argv", [["run", "--no-fused"], ["run", "--fused"],
                                      ["bench-pipeline"]], ids=" ".join)
    def test_removed_pipeline_toggle_is_an_argparse_error(self, argv):
        with pytest.raises(SystemExit):
            main(argv)


class TestCLICommands:
    def test_info_lists_models_and_compressors(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "lstm_ptb" in out
        assert "a2sgd" in out
        assert "66,034,000" in out

    def test_run_prints_convergence_and_writes_json(self, capsys, tmp_path):
        output = tmp_path / "result.json"
        code = main(["run", "--model", "fnn3", "--algorithm", "a2sgd", "--workers", "2",
                     "--epochs", "2", "--iterations", "4", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bits/worker/iteration" in out
        assert output.exists()
        payload = json.loads(output.read_text())
        assert payload["wire_bits_per_iteration"] == 64.0

    def test_sweep_command(self, capsys, tmp_path):
        output = tmp_path / "sweep.json"
        code = main(["sweep", "--model", "fnn3", "--workers", "2", "--algorithms",
                     "dense", "a2sgd", "--epochs", "2", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        data = json.loads(output.read_text())
        assert set(data["2"]) == {"dense", "a2sgd"}

    def test_cost_command(self, capsys, tmp_path):
        output = tmp_path / "cost.json"
        code = main(["cost", "--models", "lstm_ptb", "--algorithms", "dense", "a2sgd",
                     "--workers", "2", "8", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Table 2" in out
        data = json.loads(output.read_text())
        assert "lstm_ptb" in data

    def test_compare_command(self, capsys):
        code = main(["compare", "--size", "20000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "a2sgd" in out and "dense" in out and "dgc" in out

    def test_compare_error_column_is_each_lone_rank_error(self, capsys):
        main(["compare", "--size", "20000", "--seed", "0"])
        table = capsys.readouterr().out.splitlines()[3:]
        column = {cells[0].strip(): cells[-1].strip()
                  for cells in (line.split("|") for line in table)}
        assert sorted(column) == list_compressors()
        gradient = (np.random.default_rng(0).standard_normal(20000) * 0.01
                    ).astype(np.float32)
        g = gradient.astype(np.float64)
        for name, printed in column.items():
            payload, _ = get_compressor(name).compress(gradient.copy())
            estimate = decoded_payload(get_compressor(name), payload, gradient)
            expected = np.linalg.norm(g - estimate) / np.linalg.norm(g)
            assert printed == f"{expected:.3f}", name


class TestConfigDrivenCLI:
    def write_spec(self, tmp_path, **overrides):
        payload = {"model": "fnn3", "algorithm": "a2sgd", "world_size": 2, "epochs": 2,
                   "max_iterations_per_epoch": 4, "batch_size": 16, "seed": 0}
        payload.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return path

    def test_run_from_config_matches_flag_run(self, capsys, tmp_path):
        path = self.write_spec(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        assert main(["run", "--model", "fnn3", "--algorithm", "a2sgd", "--workers", "2",
                     "--epochs", "2", "--iterations", "4", "--batch-size", "16",
                     "--seed", "0"]) == 0
        from_flags = capsys.readouterr().out
        # Seed-for-seed: the convergence table (losses and metric) must be
        # identical; only the wall-time part of the title may differ.
        assert from_config.splitlines()[1:] == from_flags.splitlines()[1:]

    def test_flags_override_config(self, capsys, tmp_path):
        path = self.write_spec(tmp_path, epochs=2)
        assert main(["run", "--config", str(path), "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        # Only one epoch row: the explicit flag overrode the spec's epochs=2.
        data_rows = [line for line in out.splitlines()
                     if line and line.split("|")[0].strip().isdigit()]
        assert len(data_rows) == 1

    def test_run_preset_and_eval_every_flags(self, capsys):
        code = main(["run", "--preset", "tiny", "--workers", "2", "--epochs", "2",
                     "--iterations", "2", "--eval-every", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "train loss" in out

    def test_run_rejects_invalid_config(self, capsys, tmp_path):
        path = self.write_spec(tmp_path, algorithm="zip")
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown compressor 'zip'" in err

    def test_run_with_named_callback(self, capsys, tmp_path):
        path = self.write_spec(tmp_path, epochs=1, max_iterations_per_epoch=2)
        assert main(["run", "--config", str(path), "--callback", "progress"]) == 0

    def test_validate_ok(self, capsys, tmp_path):
        path = self.write_spec(tmp_path)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "derived TrainerConfig" in out

    def test_validate_reports_problems_and_fails(self, capsys, tmp_path):
        path = self.write_spec(tmp_path, world_size=0, algorithm="zip")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err
        assert "world_size" in err and "zip" in err

    def test_validate_missing_file(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_validate_unknown_field_suggestion(self, capsys, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"algorithmm": "a2sgd"}))
        assert main(["validate", str(path)]) == 1
        assert "did you mean 'algorithm'" in capsys.readouterr().err

    def test_info_lists_registries(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Datasets" in out
        assert "Trainer callbacks" in out
        assert "early_stopping" in out


class TestComponentsCommand:
    def test_lists_every_registry(self, capsys):
        assert main(["components"]) == 0
        out = capsys.readouterr().out
        for section in ("sync-strategies", "aggregators", "topologies",
                        "compressors", "models", "callbacks", "networks",
                        "optimizers", "lr-schedules", "datasets"):
            assert section in out
        # The new component families are discoverable by name.
        for name in ("allreduce", "local_sgd", "gossip", "geometric_median",
                     "trimmed_mean", "coordinate_median", "ring", "star",
                     "fully_connected"):
            assert name in out

    def test_single_registry_selection(self, capsys):
        assert main(["components", "--registry", "aggregators"]) == 0
        out = capsys.readouterr().out
        assert "geometric_median" in out
        assert "sync-strategies" not in out


class TestSyncFlags:
    def test_run_with_sync_flags(self, capsys):
        assert main(["run", "--model", "fnn3", "--algorithm", "dense",
                     "--workers", "2", "--epochs", "1", "--iterations", "2",
                     "--sync", "gossip", "--topology", "ring"]) == 0
        out = capsys.readouterr().out
        assert "strategy=gossip" in out and "topology=ring" in out

    def test_run_with_local_sgd_period(self, capsys):
        assert main(["run", "--model", "fnn3", "--workers", "2", "--epochs", "1",
                     "--iterations", "2", "--sync", "local_sgd",
                     "--sync-period", "2"]) == 0
        assert "period=2" in capsys.readouterr().out

    def test_sync_flags_merge_over_config(self, capsys, tmp_path):
        """Flags refine the spec file's sync section instead of replacing it."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "model": "fnn3", "algorithm": "dense", "world_size": 2, "epochs": 1,
            "max_iterations_per_epoch": 2, "batch_size": 16,
            "num_train": 128, "num_test": 32,
            "sync": {"strategy": "gossip", "topology": "star"}}))
        assert main(["run", "--config", str(path),
                     "--topology", "fully_connected"]) == 0
        out = capsys.readouterr().out
        assert "strategy=gossip" in out and "topology=fully_connected" in out

    def test_invalid_sync_combination_fails_validation(self, capsys):
        assert main(["run", "--model", "fnn3", "--algorithm", "topk",
                     "--workers", "2", "--epochs", "1", "--iterations", "2",
                     "--aggregator", "coordinate_median"]) == 1
        assert "allreduce-kind compressors only" in capsys.readouterr().err

    def test_validate_prints_sync_summary(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "model": "fnn3", "world_size": 4,
            "sync": {"strategy": "local_sgd", "period": 4}}))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "strategy=local_sgd" in out and "period=4" in out

    def test_validate_reports_broken_sync_spec(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "model": "fnn3", "world_size": 2,
            "sync": {"strategy": "warp", "corrupt_ranks": [9]}}))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown sync strategy" in err
        assert "out of range" in err

    def test_sync_flag_switches_strategy_dropping_old_knobs(self, capsys, tmp_path):
        """--sync to a different strategy resets the old strategy's specific
        fields instead of letting them invalidate the merged spec."""
        path = tmp_path / "gossip.json"
        path.write_text(json.dumps({
            "model": "fnn3", "algorithm": "dense", "world_size": 2, "epochs": 1,
            "max_iterations_per_epoch": 2, "batch_size": 16,
            "num_train": 128, "num_test": 32,
            "sync": {"strategy": "gossip", "topology": "star"}}))
        assert main(["run", "--config", str(path), "--sync", "allreduce"]) == 0
        out = capsys.readouterr().out
        assert "strategy=gossip" not in out

    def test_invalid_config_sync_with_flags_reports_spec_error(self, capsys, tmp_path):
        """A broken sync section plus sync flags fails cleanly, not with a
        raw traceback."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "model": "fnn3", "world_size": 2,
            "sync": {"perod": 3}}))
        assert main(["run", "--config", str(path), "--aggregator", "mean"]) == 1
        err = capsys.readouterr().err
        assert "did you mean 'period'" in err

    def test_sync_alias_not_treated_as_strategy_switch(self, capsys, tmp_path):
        """An aliased strategy name in the config ("localsgd") plus the
        canonical name on the flag must not reset the config's period."""
        path = tmp_path / "alias.json"
        path.write_text(json.dumps({
            "model": "fnn3", "algorithm": "dense", "world_size": 2, "epochs": 1,
            "max_iterations_per_epoch": 2, "batch_size": 16,
            "num_train": 128, "num_test": 32,
            "sync": {"strategy": "localsgd", "period": 4}}))
        assert main(["run", "--config", str(path), "--sync", "local_sgd"]) == 0
        assert "period=4" in capsys.readouterr().out

    def test_aggregator_switch_drops_stale_kwargs(self, capsys, tmp_path):
        """--aggregator to a different aggregator resets the config's
        aggregator_kwargs instead of failing construction."""
        path = tmp_path / "trimmed.json"
        path.write_text(json.dumps({
            "model": "fnn3", "algorithm": "dense", "world_size": 2, "epochs": 1,
            "max_iterations_per_epoch": 2, "batch_size": 16,
            "num_train": 128, "num_test": 32,
            "sync": {"aggregator": "trimmed_mean",
                     "aggregator_kwargs": {"trim_ratio": 0.25}}}))
        assert main(["run", "--config", str(path), "--aggregator", "mean"]) == 0

    def test_sync_flags_accept_registry_aliases(self, capsys):
        """CLI flags resolve aliases exactly like spec files do."""
        assert main(["run", "--model", "fnn3", "--algorithm", "dense",
                     "--workers", "2", "--epochs", "1", "--iterations", "2",
                     "--sync", "localsgd", "--sync-period", "2"]) == 0
        assert "strategy=local_sgd" in capsys.readouterr().out

    def test_sync_flag_rejects_unknown_name_with_suggestions(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--model", "fnn3", "--sync", "gosip"])
        assert "available" in capsys.readouterr().err


class TestSimulatedTimeFlags:
    def test_components_list_is_derived_from_the_registry_module(self):
        """The CLI's registry table is the live public_registries() mapping,
        not a hand-maintained copy — new registries appear automatically."""
        from repro.cli import COMPONENT_REGISTRIES
        from repro.registry import PUBLIC_REGISTRIES, public_registries

        assert COMPONENT_REGISTRIES is public_registries()
        assert COMPONENT_REGISTRIES is PUBLIC_REGISTRIES
        assert "compute-models" in COMPONENT_REGISTRIES

    def test_components_lists_compute_models(self, capsys):
        assert main(["components", "--registry", "compute-models"]) == 0
        out = capsys.readouterr().out
        for name in ("constant", "lognormal", "straggler",
                     "intermittent_dropout"):
            assert name in out

    def test_components_lists_async_strategies(self, capsys):
        assert main(["components", "--registry", "sync-strategies"]) == 0
        out = capsys.readouterr().out
        assert "async_ps" in out and "easgd" in out

    def test_run_async_ps_prints_simulated_time(self, capsys):
        assert main(["run", "--model", "fnn3", "--algorithm", "dense",
                     "--workers", "2", "--epochs", "1", "--iterations", "2",
                     "--batch-size", "8", "--sync", "async_ps",
                     "--compute-model", "lognormal", "--seed-clock", "5"]) == 0
        out = capsys.readouterr().out
        assert "simulated time:" in out
        assert "async_ps" in out and "lognormal" in out and "clock seed 5" in out

    def test_validate_rejects_invalid_staleness_bound(self, capsys, tmp_path):
        path = tmp_path / "bad_staleness.json"
        path.write_text(json.dumps({
            "model": "fnn3", "algorithm": "dense", "world_size": 2,
            "epochs": 1, "max_iterations_per_epoch": 2, "batch_size": 8,
            "num_train": 128, "num_test": 32,
            "sync": {"strategy": "async_ps",
                     "strategy_kwargs": {"staleness_bound": -1}}}))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err
        assert "staleness_bound must be an integer >= 0" in err

    def test_validate_accepts_compute_model_spec(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({
            "model": "fnn3", "algorithm": "dense", "world_size": 2,
            "epochs": 1, "max_iterations_per_epoch": 2, "batch_size": 8,
            "num_train": 128, "num_test": 32, "clock_seed": 3,
            "compute_model": {"name": "straggler", "slowdown": 4.0},
            "sync": {"strategy": "easgd", "period": 2}}))
        assert main(["validate", str(path)]) == 0

    def test_validate_rejects_unknown_compute_model(self, capsys, tmp_path):
        path = tmp_path / "warp.json"
        path.write_text(json.dumps({
            "model": "fnn3", "algorithm": "dense", "world_size": 2,
            "epochs": 1, "max_iterations_per_epoch": 2, "batch_size": 8,
            "num_train": 128, "num_test": 32,
            "compute_model": "warp_speed"}))
        assert main(["validate", str(path)]) == 1
        assert "compute_model" in capsys.readouterr().err


class TestFaultFlags:
    BASE = ["run", "--model", "fnn3", "--algorithm", "dense", "--workers", "4",
            "--epochs", "1", "--iterations", "4", "--batch-size", "8"]

    def test_run_with_fault_model_prints_fault_summary(self, capsys):
        assert main(self.BASE + ["--fault-model", "crash_stop",
                                 "--seed-faults", "3"]) == 0
        out = capsys.readouterr().out
        assert "faults (crash_stop, seed 3)" in out
        assert "outage(s)" in out and "rejoin(s)" in out

    def test_healthy_run_prints_no_fault_line(self, capsys):
        assert main(self.BASE) == 0
        assert "faults (" not in capsys.readouterr().out

    def test_unknown_fault_model_rejected(self):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--fault-model", "warp"])

    def test_fault_flags_merge_over_config(self, capsys, tmp_path):
        # Switching the model via the flag drops the spec's blackout kwargs
        # (they would make crash_stop unconstructible) but keeps its barrier
        # policy fields.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "model": "fnn3", "algorithm": "dense", "world_size": 4,
            "epochs": 1, "max_iterations_per_epoch": 4, "batch_size": 8,
            "num_train": 128, "num_test": 32,
            "faults": {"model": "transient_blackout",
                       "model_kwargs": {"mean_down_s": 0.02,
                                        "mean_up_s": 0.03},
                       "barrier_timeout_s": 0.2},
            "fault_seed": 9}))
        assert main(["run", "--config", str(path),
                     "--fault-model", "crash_stop"]) == 0
        out = capsys.readouterr().out
        assert "faults (crash_stop, seed 9)" in out

    def test_fault_report_rides_in_output_json(self, capsys, tmp_path):
        output = tmp_path / "result.json"
        assert main(self.BASE + ["--fault-model", "crash_stop",
                                 "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        fault = payload["sim"]["fault"]
        assert fault["model"] == "crash_stop"
        assert sum(fault["down_transitions_per_rank"]) == 1

    def test_metrics_csv_flag_writes_fault_columns(self, capsys, tmp_path):
        csv_path = tmp_path / "metrics.csv"
        assert main(self.BASE + ["--sync", "async_ps", "--fault-model",
                                 "message_loss", "--metrics-csv",
                                 str(csv_path)]) == 0
        assert "metrics written to" in capsys.readouterr().out
        header = csv_path.read_text().splitlines()[0]
        assert "rejected_pushes,mean_staleness" in header
        assert header.endswith(
            "active_clients,cohort_fraction,unique_clients_seen")

    def test_components_lists_fault_models(self, capsys):
        assert main(["components", "--registry", "fault-models"]) == 0
        out = capsys.readouterr().out
        for name in ("crash_stop", "transient_blackout", "message_loss",
                     "slow_node"):
            assert name in out

    def test_validate_prints_faults_line(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "model": "fnn3", "algorithm": "dense", "world_size": 4,
            "epochs": 1, "max_iterations_per_epoch": 4, "batch_size": 8,
            "num_train": 128, "num_test": 32,
            "faults": {"model": "message_loss", "model_kwargs": {"p": 0.1}}}))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "faults: model=message_loss" in out

    def test_validate_pins_malformed_fault_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "model": "fnn3", "world_size": 2,
            "faults": {"model": "transient_blackout",
                       "model_kwargs": {"mean_down_s": -1}}}))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert ("fault model 'transient_blackout' cannot be constructed with "
                "{'mean_down_s': -1}: mean_down_s must be > 0, got -1.0") in err
