"""Compute-time model tests: formulas, seeding, replay-restore, validation."""

import numpy as np
import pytest

from repro.core.features import RunFeatures
from repro.core.trainer import TrainerConfig
from repro.sim import COMPUTE_MODELS, resolve_compute_model
from repro.sim.compute import (
    ConstantComputeModel,
    IntermittentDropoutComputeModel,
    LognormalComputeModel,
    StragglerComputeModel,
)

ALL_NAMES = ["constant", "intermittent_dropout", "lognormal", "straggler"]


class TestRegistry:
    def test_all_models_registered(self):
        assert COMPUTE_MODELS.list() == ALL_NAMES

    def test_resolve_forms(self):
        assert resolve_compute_model(None) is None
        assert isinstance(resolve_compute_model("constant"), ConstantComputeModel)
        model = resolve_compute_model({"name": "straggler", "slowdown": 4.0})
        assert isinstance(model, StragglerComputeModel)
        assert model.slowdown == 4.0
        same = resolve_compute_model(model)
        assert same is model

    def test_resolve_rejects_bad_forms(self):
        with pytest.raises(ValueError):
            resolve_compute_model({"slowdown": 4.0})     # missing name
        with pytest.raises(ValueError):
            resolve_compute_model(3.14)

    def test_problems_surface_errors(self):
        def compute_model_problems(value):
            return RunFeatures.of(TrainerConfig(compute_model=value)).problems()

        assert compute_model_problems(None) == []
        assert compute_model_problems("constant") == []
        problems = compute_model_problems("warp_speed")
        assert len(problems) == 1 and "compute_model:" in problems[0]
        problems = compute_model_problems({"name": "constant", "compute_s": -1})
        assert len(problems) == 1 and "compute_s" in problems[0]


class TestSampling:
    def test_constant_is_exact(self):
        model = ConstantComputeModel(compute_s=0.02)
        model.bind(3, clock_seed=0)
        for rank in range(3):
            assert model.step_time(rank) == (0.02, 0.0)

    def test_lognormal_is_mean_preserving(self):
        model = LognormalComputeModel(compute_s=0.01, sigma=0.5)
        model.bind(1, clock_seed=0)
        times = [model.step_time(0)[0] for _ in range(20000)]
        assert np.mean(times) == pytest.approx(0.01, rel=0.02)

    def test_straggler_scales_designated_rank(self):
        model = StragglerComputeModel(compute_s=0.01, slowdown=8.0, sigma=0.0)
        model.bind(4, clock_seed=0)
        assert model.step_time(0) == (0.01, 0.0)
        assert model.step_time(3) == (pytest.approx(0.08), 0.0)   # default: last rank

    def test_straggler_explicit_ranks_validated_at_bind(self):
        model = StragglerComputeModel(straggler_ranks=[5])
        with pytest.raises(ValueError, match="out of range"):
            model.bind(4, clock_seed=0)

    def test_dropout_stalls_with_configured_probability(self):
        model = IntermittentDropoutComputeModel(compute_s=0.01, drop_prob=0.25,
                                                downtime_s=1.0)
        model.bind(1, clock_seed=0)
        stalls = [model.step_time(0)[1] for _ in range(8000)]
        assert np.mean([s > 0 for s in stalls]) == pytest.approx(0.25, abs=0.02)
        assert set(stalls) <= {0.0, 1.0}

    def test_per_rank_streams_are_independent(self):
        model = LognormalComputeModel(sigma=0.5)
        model.bind(2, clock_seed=0)
        a = [model.step_time(0)[0] for _ in range(5)]
        b = [model.step_time(1)[0] for _ in range(5)]
        assert a != b

    def test_same_seed_reproduces_draws(self):
        draws = []
        for _ in range(2):
            model = StragglerComputeModel(sigma=0.3)
            model.bind(4, clock_seed=7)
            draws.append([model.step_time(r) for r in range(4) for _ in range(10)])
        assert draws[0] == draws[1]

    def test_different_clock_seeds_differ(self):
        a = LognormalComputeModel()
        a.bind(1, clock_seed=0)
        b = LognormalComputeModel()
        b.bind(1, clock_seed=1)
        assert a.step_time(0) != b.step_time(0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ConstantComputeModel(compute_s=0.0)
        with pytest.raises(ValueError):
            LognormalComputeModel(sigma=-1.0)
        with pytest.raises(ValueError):
            StragglerComputeModel(slowdown=0.0)
        with pytest.raises(ValueError):
            IntermittentDropoutComputeModel(drop_prob=1.5)


class TestRestore:
    @pytest.mark.parametrize("name,kwargs", [
        ("constant", {}),
        ("lognormal", {"sigma": 0.4}),
        ("straggler", {"sigma": 0.3}),
        ("intermittent_dropout", {"drop_prob": 0.3, "sigma": 0.2}),
    ])
    def test_restore_sets_the_generator_states(self, name, kwargs):
        """restore() puts every rank's generator on the saved state, so
        future draws match an uninterrupted run exactly."""
        reference = COMPUTE_MODELS.create(name, **kwargs)
        reference.bind(3, clock_seed=11)
        for rank, count in enumerate([3, 0, 5]):
            for _ in range(count):
                reference.step_time(rank)
        saved = reference.generator_states()
        expected = [reference.step_time(rank) for rank in range(3)]

        resumed = COMPUTE_MODELS.create(name, **kwargs)
        resumed.bind(3, clock_seed=11)
        resumed.restore(saved)
        np.testing.assert_array_equal(resumed.generator_states(), saved)
        assert [resumed.step_time(rank) for rank in range(3)] == expected

    def test_restore_requires_matching_world_size(self):
        model = ConstantComputeModel()
        model.bind(2, clock_seed=0)
        states = model.generator_states()
        with pytest.raises(ValueError):
            model.restore(np.concatenate([states, states[:1]]))

    def test_to_dict_round_trips_through_resolve(self):
        for name in ALL_NAMES:
            model = COMPUTE_MODELS.create(name)
            clone = resolve_compute_model(model.to_dict())
            assert type(clone) is type(model)
            assert clone.to_dict() == model.to_dict()
