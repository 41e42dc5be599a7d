"""The callback hook order of the simulator's epoch loop, pinned per schedule.

A recording callback logs every hook with ``(epoch, iteration,
epoch_progress, global_iteration)`` on four runs that reach each way out of
an iteration: a healthy lockstep run; a lockstep run whose whole world
crashes for good (the fault phase stops the run after ``on_iteration_start``
and no ``on_iteration_end`` follows); an ``async_ps`` run whose every rank
crashes (the event loop stops on an empty clock); and an ``async_ps`` run
under transient blackouts (events the fault gate consumes fire no hook).
The logs are compared with ``tests/golden/hook_order.json``; regenerate it
with ``PYTHONPATH=src python -m tests.test_hook_order`` only for a declared
change of the loop's order.
"""

import json
from pathlib import Path

import pytest

from repro.core import DistributedTrainer, TrainerConfig
from repro.core.callbacks import Callback

GOLDEN = Path(__file__).resolve().parent / "golden" / "hook_order.json"

BASE = dict(model="fnn3", preset="tiny", algorithm="dense", world_size=3, epochs=2,
            batch_size=8, max_iterations_per_epoch=3, num_train=128, num_test=32,
            seed=0, compute_model={"name": "lognormal", "sigma": 0.4}, clock_seed=5)

ASYNC = {"strategy": "async_ps", "strategy_kwargs": {"staleness_penalty": 0.9}}

RUNS = {
    "lockstep-healthy": {},
    "lockstep-crash_stop": dict(faults={"model": "crash_stop",
                                        "model_kwargs": {"ranks": [0, 1, 2],
                                                         "at_s": 0.04}}),
    "async_ps-crash_stop": dict(sync=ASYNC,
                                faults={"model": "crash_stop",
                                        "model_kwargs": {"ranks": [0, 1, 2],
                                                         "at_s": 0.05}}),
    "async_ps-transient_blackout": dict(
        sync=ASYNC, fault_seed=9,
        faults={"model": "transient_blackout",
                "model_kwargs": {"mean_down_s": 0.02, "mean_up_s": 0.03}}),
}


class HookLog(Callback):
    """One ``[hook, epoch, iteration, epoch_progress, global_iteration]`` row
    per hook call."""

    def __init__(self):
        self.rows = []

    def _log(self, hook: str, state) -> None:
        self.rows.append([hook, state.epoch, state.iteration,
                          state.epoch_progress, state.global_iteration])

    def on_train_start(self, state) -> None:
        self._log("on_train_start", state)

    def on_epoch_start(self, state) -> None:
        self._log("on_epoch_start", state)

    def on_iteration_start(self, state) -> None:
        self._log("on_iteration_start", state)

    def on_iteration_end(self, state) -> None:
        self._log("on_iteration_end", state)

    def on_epoch_end(self, state) -> None:
        self._log("on_epoch_end", state)

    def on_train_end(self, state) -> None:
        self._log("on_train_end", state)


def hook_log(label: str) -> list:
    log = HookLog()
    with DistributedTrainer(TrainerConfig(**{**BASE, **RUNS[label]}),
                            callbacks=[log]) as trainer:
        trainer.train()
    return log.rows


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label", RUNS)
def test_hook_order_is_pinned(label, golden):
    assert hook_log(label) == golden[label]


def test_the_logs_reach_every_exit(golden):
    """Each run takes the way out it is named for."""
    def names(label):
        return [row[0] for row in golden[label]]

    healthy = names("lockstep-healthy")
    assert healthy.count("on_iteration_end") == 6
    # The fault-phase stop: the last iteration started and never ended.
    crashed = names("lockstep-crash_stop")
    assert crashed[-3:] == ["on_iteration_start", "on_epoch_end", "on_train_end"]
    assert crashed.count("on_iteration_end") < 6
    # The empty clock: the loop stops between events.
    emptied = names("async_ps-crash_stop")
    assert emptied[-3:] == ["on_iteration_end", "on_epoch_end", "on_train_end"]
    assert emptied.count("on_iteration_end") < 18
    # Gate-consumed events fire nothing: every started step ends, and the
    # global counter has no gaps.
    blackout = golden["async_ps-transient_blackout"]
    starts = [row for row in blackout if row[0] == "on_iteration_start"]
    ends = [row for row in blackout if row[0] == "on_iteration_end"]
    assert len(starts) == len(ends) == 18
    assert [row[4] for row in ends] == list(range(1, 19))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({label: hook_log(label) for label in RUNS},
                                 indent=1) + "\n")
    print(f"wrote {GOLDEN}")
