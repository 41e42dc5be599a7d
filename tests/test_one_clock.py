"""Every run keeps one time base, the simulator's clock.

A spec without a compute model runs on the ``constant`` one, so a run's
whole result — timeline, metric rows and clock summary — is a function of
its spec and seeds: two runs agree byte for byte once the measured
``wall_time_s`` is set aside.  On the lockstep paths the timeline is the
clock's fold, so its total is the simulated time.
"""

import json
import math
from pathlib import Path

import pytest

from repro.core import DistributedTrainer, ExperimentSpec, TrainerConfig, run_experiment

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("spec_*.json"))


def result_without_wall_time(path: Path) -> str:
    spec = ExperimentSpec.from_dict({**json.loads(path.read_text()),
                                     "epochs": 1, "max_iterations_per_epoch": 3})
    payload = run_experiment(spec).as_dict()
    payload.pop("wall_time_s")
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_spec_result_is_reproducible(path):
    assert result_without_wall_time(path) == result_without_wall_time(path)


BASE = dict(model="fnn3", preset="tiny", algorithm="a2sgd", world_size=4, epochs=2,
            batch_size=8, max_iterations_per_epoch=4, num_train=256, num_test=32,
            seed=0)

LOCKSTEP_RUNS = {
    "healthy": {},
    "transient_blackout": dict(faults={"model": "transient_blackout"}, fault_seed=9),
    "fedavg": dict(algorithm="dense", sync={"strategy": "fedavg", "period": 2},
                   clients={"num_clients": 8, "sampler": "uniform",
                            "sampler_seed": 7}),
}


@pytest.mark.parametrize("label", LOCKSTEP_RUNS)
def test_lockstep_timeline_total_is_the_simulated_time(label):
    with DistributedTrainer(TrainerConfig(**{**BASE, **LOCKSTEP_RUNS[label]})) as trainer:
        trainer.train()
    timeline = trainer.timeline.as_dict()
    assert timeline["iterations"] == trainer.lockstep_sim.iterations == 8
    assert math.isclose(timeline["total_s"], trainer.simulated_time_s)
    assert trainer.metrics.simulated_time_s[-1] == trainer.simulated_time_s
    if label == "transient_blackout":
        # Rejoin re-syncs and discovery timeouts are on the clock too.
        assert timeline["fault_s"] > 0.0
    else:
        assert timeline["fault_s"] == 0.0
