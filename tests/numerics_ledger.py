"""The numerics ledger: pinned numbers in one checked-in file.

``tests/golden/ledger.json`` holds, per benchmark workload, the sha256 of a
short cut of its run — the spec ``benchmarks/perf/workloads.py::spec_for``
builds, without its checkpoint callback and cut as the ledger's ``cut``
entry says — over the per-iteration training losses (float64)
followed by the final ``(P, n)`` parameter matrix.  It also holds the tape
structure counts two executor tests pin, and the benchmark's full-length
seed-0 values as data.

A declared numerics change edits the ledger in the same change and quotes
old → new in CHANGES.md; ``python -m tests.numerics_ledger`` prints the
digests the tree produces now.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.callbacks import Callback
from repro.core.spec import ExperimentSpec
from repro.core.trainer import DistributedTrainer

ROOT = Path(__file__).resolve().parent.parent
LEDGER = json.loads((Path(__file__).parent / "golden" / "ledger.json").read_text())


def _load_workloads():
    """``benchmarks/perf/workloads.py`` itself, imported rather than copied."""
    path = ROOT / "benchmarks" / "perf" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses resolve it there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


class _LossTrajectory(Callback):
    def __init__(self):
        self.losses = []

    def on_iteration_end(self, state) -> None:
        self.losses.append(state.loss)


def short_spec(workload) -> Dict[str, object]:
    """The workload's spec cut to the ledger's short cell."""
    cut = LEDGER["short_cells"]["cut"]
    spec = workloads.spec_for(workload, cut["seed"])
    spec.pop("callbacks", None)
    spec.update(epochs=cut["epochs"],
                max_iterations_per_epoch=cut["max_iterations_per_epoch"],
                num_train=min(spec["num_train"], cut["max_num_train"]),
                num_test=cut["num_test"])
    return spec


def short_cell_digest(workload) -> str:
    """sha256 of the short cell's loss trajectory and final parameters."""
    spec = ExperimentSpec.from_dict(short_spec(workload)).validate()
    trajectory = _LossTrajectory()
    trainer = DistributedTrainer(spec.to_trainer_config(), callbacks=[trajectory])
    try:
        trainer.train()
    finally:
        trainer.close()
    digest = hashlib.sha256(np.asarray(trajectory.losses, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(trainer.flat_world.param_matrix).tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(json.dumps({workload.name: short_cell_digest(workload)
                      for workload in workloads.WORKLOADS}, indent=2))
