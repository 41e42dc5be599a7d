"""Tests for the declarative ExperimentSpec and its CLI/runner integration."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.comm.network_model import NetworkModel, ethernet_10gbps
from repro.core import run_algorithm_sweep, run_experiment
from repro.core.callbacks import Callback
from repro.core.spec import ExperimentSpec, SpecError
from repro.core.trainer import TrainerConfig


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def quick_spec(**overrides) -> ExperimentSpec:
    base = dict(model="fnn3", preset="tiny", algorithm="a2sgd", world_size=2, epochs=2,
                max_iterations_per_epoch=4, batch_size=16, num_train=128, num_test=32, seed=0)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestDerivation:
    def test_trainer_config_fields_all_derived(self):
        """Every TrainerConfig field exists on the spec — no hand-mirror."""
        spec_fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
        trainer_fields = {f.name for f in dataclasses.fields(TrainerConfig)}
        assert trainer_fields <= spec_fields

    def test_to_trainer_config_copies_values(self):
        spec = quick_spec(algorithm="topk", compressor_kwargs={"ratio": 0.01},
                          eval_every=2)
        config = spec.to_trainer_config()
        assert config.algorithm == "topk"
        assert config.compressor_kwargs == {"ratio": 0.01}
        assert config.eval_every == 2

    def test_trainer_config_does_not_alias_spec_mutables(self):
        spec = quick_spec(compressor_kwargs={"ratio": 0.01})
        config = spec.to_trainer_config()
        config.compressor_kwargs["ratio"] = 0.5
        assert spec.compressor_kwargs["ratio"] == 0.01

    def test_network_resolution_by_name(self):
        config = quick_spec(network="ethernet_10gbps").to_trainer_config()
        assert isinstance(config.network, NetworkModel)
        assert config.network == ethernet_10gbps()

    def test_network_resolution_from_dict(self):
        config = quick_spec(network={"latency_s": 1e-6, "bandwidth_Bps": 1e9,
                                     "name": "lab"}).to_trainer_config()
        assert config.network.name == "lab"


class TestRoundTrip:
    def test_dict_round_trip_preserves_trainer_config(self):
        spec = quick_spec(algorithm="topk", compressor_kwargs={"ratio": 0.02},
                          network="ethernet_10gbps", eval_every=2,
                          callbacks=["progress", {"name": "early_stopping", "patience": 2}])
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt.to_trainer_config() == spec.to_trainer_config()
        assert rebuilt.callbacks == spec.callbacks

    def test_file_round_trip(self, tmp_path):
        spec = quick_spec(network={"latency_s": 2e-6, "bandwidth_Bps": 5e9, "name": "x"})
        path = spec.to_file(tmp_path / "spec.json")
        rebuilt = ExperimentSpec.from_file(path)
        assert rebuilt.to_trainer_config() == spec.to_trainer_config()
        # The file itself is plain JSON.
        assert json.loads(path.read_text())["model"] == "fnn3"

    def test_dict_is_json_ready(self):
        payload = quick_spec().to_dict()
        json.dumps(payload)  # must not raise

    def test_callback_instances_fail_serialization_with_clear_error(self):
        spec = quick_spec(callbacks=[Callback()])
        with pytest.raises(SpecError, match="not serializable"):
            spec.to_dict()


class TestFromDictErrors:
    def test_unknown_key_suggests_fix(self):
        with pytest.raises(SpecError, match="did you mean 'algorithm'"):
            ExperimentSpec.from_dict({"algorithmm": "a2sgd"})

    def test_multiple_problems_reported_together(self):
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.from_dict({"foo": 1, "bar": 2})
        assert len(excinfo.value.problems) == 2

    def test_non_dict_rejected(self):
        with pytest.raises(SpecError, match="expected a JSON object"):
            ExperimentSpec.from_dict([1, 2, 3])

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            ExperimentSpec.from_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            ExperimentSpec.from_file(path)


#: Retired spec keys and the pinned message a value other than ``true`` gets.
RETIRED_KEYS = {
    "fused_pipeline": "`fused_pipeline: false` was removed: the per-rank loops are "
                      "a test oracle now (tests/reference_trainer.py); delete the key",
    "taped": "`taped: false` was removed: the batched executors always record and "
             "replay, running eagerly only where a graph cannot be replayed "
             "(tests/eager_executors.py is the oracle); delete the key",
}


@pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
class TestRetiredKeys:
    """A removed option survives only as a reader for spec files written
    before its removal (they all carry ``true``)."""

    def test_true_is_read_past(self, key):
        payload = quick_spec().to_dict()
        assert ExperimentSpec.from_dict({**payload, key: True}) \
            == ExperimentSpec.from_dict(payload)

    @pytest.mark.parametrize("value", [False, 0, "true", None])
    def test_any_other_value_is_rejected_with_the_pinned_message(self, key, value):
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.from_dict({key: value})
        assert excinfo.value.problems == [RETIRED_KEYS[key]]

    def test_key_is_not_written_back(self, key):
        spec = ExperimentSpec.from_dict({key: True})
        assert key not in spec.to_dict()

    def test_it_is_not_a_field_any_more(self, key):
        with pytest.raises(SpecError, match=f"unknown field '{key}'"):
            quick_spec().replace(**{key: True})
        with pytest.raises(TypeError, match=key):
            TrainerConfig(**{key: True})

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("spec_*.json")), ids=lambda p: p.name)
    def test_example_specs_validate_without_the_key(self, key, path):
        assert key not in json.loads(path.read_text())
        ExperimentSpec.from_file(path).validate()


class TestValidate:
    def test_valid_spec_returns_self(self):
        spec = quick_spec()
        assert spec.validate() is spec

    @pytest.mark.parametrize("seed", ["x", 1.5, True, None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(SpecError, match="seed must be an integer"):
            quick_spec(seed=seed).validate()

    @pytest.mark.parametrize("name", ["world_size", "epochs", "eval_every", "seq_len",
                                      "batch_size", "max_iterations_per_epoch",
                                      "num_train", "num_test"])
    def test_integer_fields_reject_booleans(self, name):
        with pytest.raises(SpecError, match=f"{name} must be .*integer"):
            quick_spec(**{name: True}).validate()

    def test_collects_all_problems(self):
        spec = quick_spec(model="alexnet", algorithm="zip", world_size=0,
                          eval_every=0, network="wifi",
                          callbacks=["not_a_callback"])
        with pytest.raises(SpecError) as excinfo:
            spec.validate()
        text = str(excinfo.value)
        assert "alexnet" in text
        assert "unknown compressor 'zip'" in text
        assert "world_size" in text
        assert "eval_every" in text
        assert "unknown network 'wifi'" in text
        assert "unknown callback 'not_a_callback'" in text

    def test_network_dict_missing_keys(self):
        with pytest.raises(SpecError, match="latency_s"):
            quick_spec(network={"name": "x"}).validate()

    def test_network_dict_unexpected_keys(self):
        with pytest.raises(SpecError, match="unexpected keys.*typo_key"):
            quick_spec(network={"latency_s": 1e-5, "bandwidth_Bps": 1e9,
                                "typo_key": 3}).validate()

    def test_bad_compressor_kwargs_type(self):
        with pytest.raises(SpecError, match="compressor_kwargs"):
            quick_spec(compressor_kwargs=[1]).validate()

    def test_model_name_lookup_matches_runtime_normalization(self):
        # get_model_spec accepts "lstm-ptb"; validate must not reject it.
        assert quick_spec(model="lstm-ptb").validate() is not None

    def test_unconstructible_callback_caught_at_validation(self):
        # "checkpoint" needs a path; that must fail here, not mid-run.
        with pytest.raises(SpecError, match="cannot be constructed"):
            quick_spec(callbacks=["checkpoint"]).validate()
        with pytest.raises(SpecError, match="cannot be constructed"):
            quick_spec(callbacks=[{"name": "early_stopping",
                                   "patience": 0}]).validate()


class TestReplace:
    def test_replace_overrides_and_preserves(self):
        spec = quick_spec(algorithm="dense")
        other = spec.replace(algorithm="topk", world_size=4)
        assert other.algorithm == "topk" and other.world_size == 4
        assert spec.algorithm == "dense" and spec.world_size == 2

    def test_replace_deep_copies_mutables(self):
        spec = quick_spec(compressor_kwargs={"ratio": 0.05})
        other = spec.replace(algorithm="topk")
        other.compressor_kwargs["ratio"] = 0.5
        assert spec.compressor_kwargs["ratio"] == 0.05

    def test_replace_unknown_field(self):
        with pytest.raises(SpecError, match="did you mean"):
            quick_spec().replace(algorithmm="topk")

    def test_replace_preserves_subclass(self):
        class LabSpec(ExperimentSpec):
            pass

        config = LabSpec(model="fnn3", world_size=2)
        assert isinstance(config.replace(world_size=4), LabSpec)


class TestSweepRegression:
    """run_algorithm_sweep used to shallow-copy base.__dict__, sharing the
    compressor_kwargs dict and network object across every sweep cell."""

    def test_cells_do_not_share_compressor_kwargs(self):
        base = quick_spec(epochs=1, max_iterations_per_epoch=2,
                          compressor_kwargs={"ratio": 0.05})
        results = run_algorithm_sweep(base, ["topk", "randk"])
        kwargs_objects = [results[name].config.compressor_kwargs for name in ("topk", "randk")]
        assert kwargs_objects[0] is not kwargs_objects[1]
        assert kwargs_objects[0] is not base.compressor_kwargs
        kwargs_objects[0]["ratio"] = 0.9
        assert kwargs_objects[1]["ratio"] == 0.05
        assert base.compressor_kwargs["ratio"] == 0.05

    def test_cells_do_not_share_network(self):
        base = quick_spec(epochs=1, max_iterations_per_epoch=2,
                          network={"latency_s": 1e-6, "bandwidth_Bps": 1e9, "name": "n"})
        results = run_algorithm_sweep(base, ["dense", "a2sgd"])
        networks = [results[name].config.network for name in ("dense", "a2sgd")]
        assert networks[0] is not networks[1]

    def test_mutating_one_cell_config_leaves_base_untouched(self):
        base = quick_spec(epochs=1, max_iterations_per_epoch=2)
        results = run_algorithm_sweep(base, ["dense"])
        results["dense"].config.compressor_kwargs["injected"] = True
        assert "injected" not in base.compressor_kwargs


class TestRunExperimentWithSpec:
    def test_spec_callbacks_are_invoked(self):
        seen = []

        class Probe(Callback):
            def on_iteration_end(self, state):
                seen.append(state.global_iteration)

        spec = quick_spec(epochs=2, max_iterations_per_epoch=3)
        run_experiment(spec, callbacks=[Probe()])
        assert seen == list(range(1, 7))

    def test_spec_named_callbacks_resolve(self, tmp_path):
        path = tmp_path / "ck.npz"
        spec = quick_spec(epochs=1, max_iterations_per_epoch=2,
                          callbacks=[{"name": "checkpoint", "path": str(path)}])
        run_experiment(spec)
        assert path.exists()

    def test_spec_equals_flag_equivalent_trainer_config(self):
        """The CLI acceptance path: a spec file and the equivalent kwargs
        produce identical TrainerConfigs (hence seed-identical runs)."""
        spec = ExperimentSpec.from_dict({"model": "fnn3", "algorithm": "a2sgd",
                                         "world_size": 2, "epochs": 2,
                                         "max_iterations_per_epoch": 6,
                                         "batch_size": 16})
        kwargs = ExperimentSpec(model="fnn3", algorithm="a2sgd", world_size=2,
                                epochs=2, max_iterations_per_epoch=6, batch_size=16)
        assert spec.to_trainer_config() == kwargs.to_trainer_config()


class TestSyncSection:
    """The nested ``sync`` section: resolution, validation, JSON round-trip
    and replace() deep-copy semantics."""

    def test_default_sync_is_the_paper_setup(self):
        from repro.sync import SyncSpec

        spec = quick_spec()
        resolved = spec.resolved_sync()
        assert resolved == SyncSpec()
        assert resolved.strategy == "allreduce" and resolved.aggregator == "mean"

    def test_dict_form_resolves_and_derives(self):
        from repro.sync import SyncSpec

        spec = quick_spec(sync={"strategy": "local_sgd", "period": 4})
        config = spec.to_trainer_config()
        assert isinstance(config.sync, SyncSpec)
        assert config.sync.period == 4

    def test_trainer_config_sync_is_deep_copied(self):
        from repro.sync import SyncSpec

        sync = SyncSpec(strategy="gossip", corrupt_ranks=[1])
        spec = quick_spec(sync=sync)
        config = spec.to_trainer_config()
        assert config.sync == sync and config.sync is not sync
        config.sync.corrupt_ranks.append(0)
        assert sync.corrupt_ranks == [1]

    def test_json_round_trip_preserves_sync(self):
        spec = quick_spec(sync={"strategy": "gossip", "topology": "star",
                                "aggregator": "trimmed_mean",
                                "aggregator_kwargs": {"trim_ratio": 0.25}})
        restored = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.to_trainer_config() == spec.to_trainer_config()

    def test_replace_deep_copies_nested_sync(self):
        """Acceptance: sibling specs made by replace() never share the nested
        sync section's mutable state."""
        spec = quick_spec(sync={"strategy": "local_sgd", "period": 2,
                                "corrupt_ranks": [0]})
        sibling = spec.replace(world_size=4)
        sibling.sync["corrupt_ranks"].append(3)
        sibling.sync["period"] = 8
        assert spec.sync["corrupt_ranks"] == [0]
        assert spec.sync["period"] == 2

    def test_replace_override_of_sync_section(self):
        spec = quick_spec()
        other = spec.replace(sync={"strategy": "gossip", "topology": "ring"})
        assert spec.sync is None
        assert other.resolved_sync().strategy == "gossip"

    def test_validate_accepts_all_registered_components(self):
        quick_spec(sync={"strategy": "gossip", "topology": "fully_connected",
                         "aggregator": "geometric_median"}).validate()

    def test_validate_rejects_unknown_strategy_with_suggestion(self):
        with pytest.raises(SpecError, match="sync strategy"):
            quick_spec(sync={"strategy": "gosip"}).validate()

    def test_validate_rejects_unknown_sync_field_with_suggestion(self):
        with pytest.raises(SpecError, match="did you mean 'period'"):
            quick_spec(sync={"perod": 3}).validate()

    def test_validate_rejects_bad_period_and_out_of_range_ranks(self):
        with pytest.raises(SpecError) as excinfo:
            quick_spec(sync={"period": 0, "corrupt_ranks": [7]}).validate()
        message = str(excinfo.value)
        assert "period" in message and "out of range" in message

    def test_validate_rejects_robust_aggregator_with_allgather_compressor(self):
        with pytest.raises(SpecError, match="allreduce-kind compressors only"):
            quick_spec(algorithm="topk",
                       sync={"aggregator": "coordinate_median"}).validate()

    def test_validate_allows_robust_aggregator_for_parameter_strategies(self):
        quick_spec(algorithm="topk",
                   sync={"strategy": "local_sgd", "period": 4,
                         "aggregator": "coordinate_median"}).validate()

    def test_validate_rejects_unconstructible_aggregator_kwargs(self):
        with pytest.raises(SpecError, match="cannot be constructed"):
            quick_spec(sync={"aggregator": "trimmed_mean",
                             "aggregator_kwargs": {"trim_ratio": 0.9}}).validate()

    def test_validate_rejects_non_dict_sync(self):
        with pytest.raises(SpecError, match="sync must be"):
            quick_spec(sync="gossip").validate()

    def test_sync_spec_run_end_to_end(self):
        spec = quick_spec(epochs=1, max_iterations_per_epoch=2,
                          sync={"strategy": "gossip", "topology": "ring"},
                          algorithm="dense")
        result = run_experiment(spec)
        assert len(result.metrics.epochs) == 1

    def test_validate_flags_period_on_non_local_sgd_strategy(self):
        with pytest.raises(SpecError, match="only used by period-based"):
            quick_spec(sync={"period": 4}).validate()
        with pytest.raises(SpecError, match="only used by period-based"):
            quick_spec(sync={"strategy": "gossip", "period": 4}).validate()

    def test_validate_flags_topology_on_non_gossip_strategy(self):
        with pytest.raises(SpecError, match="only used by graph-based"):
            quick_spec(sync={"topology": "star"}).validate()

    def test_validate_accepts_strategy_specific_fields_on_their_strategy(self):
        quick_spec(sync={"strategy": "local_sgd", "period": 4}).validate()
        quick_spec(sync={"strategy": "gossip", "topology": "star"},
                   algorithm="dense").validate()
