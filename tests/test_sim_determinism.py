"""Property: the virtual clock is deterministic.  The same ``clock_seed``
must reproduce the exact event timeline and bit-identical final parameters
across world sizes (satellite: clock-seed determinism)."""

import json

import numpy as np
import pytest

from repro.analysis import time_to_accuracy_sweep
from repro.core import DistributedTrainer, ExperimentSpec, TrainerConfig, run_experiment
from repro.core.flatten import flatten_parameters


def run_once(world_size: int, clock_seed: int, strategy: str = "async_ps"):
    sync = {"strategy": strategy}
    if strategy == "easgd":
        sync["period"] = 2
    config = TrainerConfig(
        model="fnn3", preset="tiny", algorithm="dense", world_size=world_size,
        epochs=1, batch_size=4, max_iterations_per_epoch=3,
        num_train=128, num_test=32, seed=0, sync=sync,
        compute_model={"name": "lognormal", "sigma": 0.5},
        clock_seed=clock_seed)
    trainer = DistributedTrainer(config)
    trainer.train()
    params = np.stack([flatten_parameters(m) for m in trainer.replicas])
    return trainer.sim_report, params


class TestClockSeedDeterminism:
    @pytest.mark.parametrize("world_size", [2, 4, 8])
    def test_same_seed_reproduces_timeline_and_parameters(self, world_size):
        first_report, first_params = run_once(world_size, clock_seed=11)
        second_report, second_params = run_once(world_size, clock_seed=11)

        assert first_report.events == second_report.events
        assert first_report.events, "simulation recorded no events"
        assert first_report.simulated_time_s == second_report.simulated_time_s
        assert first_report.steps_per_rank == second_report.steps_per_rank
        assert first_report.busy_s_per_rank == second_report.busy_s_per_rank
        assert first_report.epoch_time_s == second_report.epoch_time_s
        assert first_report.staleness_histogram == second_report.staleness_histogram
        assert np.array_equal(first_params, second_params)

    def test_different_seeds_change_the_timeline(self):
        report_a, _ = run_once(4, clock_seed=0)
        report_b, _ = run_once(4, clock_seed=1)
        assert report_a.events != report_b.events

    def test_easgd_is_deterministic_too(self):
        first_report, first_params = run_once(4, clock_seed=5, strategy="easgd")
        second_report, second_params = run_once(4, clock_seed=5, strategy="easgd")
        assert first_report.events == second_report.events
        assert np.array_equal(first_params, second_params)

    @pytest.mark.parametrize("world_size", [2, 4, 8])
    def test_event_budget_matches_epoch_semantics(self, world_size):
        """One epoch pops exactly world_size x iterations_per_epoch events."""
        report, _ = run_once(world_size, clock_seed=3)
        assert report.total_steps == world_size * 3
        assert len(report.events) == report.total_steps
        # Event times are the clock's pop order: non-decreasing.
        times = [when for when, _ in report.events]
        assert times == sorted(times)


LOGNORMAL = {"name": "lognormal", "sigma": 0.5}


class TestLockstepClockIsAPureFunctionOfTheSeeds:
    """Compression is priced, not timed, so a healthy seeded lockstep run's
    clock repeats byte for byte (qsgd: the priciest kernel)."""

    def test_sim_report_is_byte_identical_across_runs(self):
        spec = ExperimentSpec(model="fnn3", preset="tiny", algorithm="qsgd",
                              world_size=4, epochs=2, batch_size=4,
                              max_iterations_per_epoch=3, num_train=128,
                              num_test=32, seed=0, compute_model=LOGNORMAL,
                              clock_seed=11)
        first, second = (json.dumps(run_experiment(spec).sim, sort_keys=True)
                         for _ in range(2))
        assert first == second

    def test_time_to_accuracy_sweep_is_byte_identical_across_runs(self):
        def sweep():
            return json.dumps(time_to_accuracy_sweep(
                model="fnn3", algorithm="qsgd", world_size=4, epochs=2,
                max_iterations_per_epoch=3, compute_model=LOGNORMAL,
                clock_seed=3, sync_setups={"allreduce": {"strategy": "allreduce"}}),
                sort_keys=True)
        assert sweep() == sweep()
