"""The numerics ledger: pinned numbers in one checked-in file.

``tests/golden/ledger.json`` holds, per benchmark workload, the sha256 of a
short cut of its run — the spec ``benchmarks/perf/workloads.py::spec_for``
builds, without its checkpoint callback and cut as the ledger's ``cut``
entry says — over the per-iteration training losses (float64)
followed by the final ``(P, n)`` parameter matrix.  It also holds the tape
structure counts two executor tests pin, and the benchmark's full-length
seed-0 values as data.

Each short cell runs in a fresh child process with the benchmark's
environment — one BLAS/OpenMP thread (``benchmarks/perf/child.py``'s
``THREAD_VARS``) — because a multi-threaded BLAS dot sums in a
thread-count-dependent order: at Table-1 size (fnn3/paper) the digests
would otherwise depend on the host's core count.

A declared numerics change edits the ledger in the same change and quotes
old → new in CHANGES.md; ``python -m tests.numerics_ledger`` prints the
digests the tree produces now.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.callbacks import Callback
from repro.core.spec import ExperimentSpec
from repro.core.trainer import DistributedTrainer

ROOT = Path(__file__).resolve().parent.parent
LEDGER = json.loads((Path(__file__).parent / "golden" / "ledger.json").read_text())


def _load_benchmark_module(name: str):
    """``benchmarks/perf/<name>.py`` itself, imported rather than copied."""
    path = ROOT / "benchmarks" / "perf" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses resolve it there
    spec.loader.exec_module(module)
    return module


workloads = _load_benchmark_module("workloads")
benchmark_child = _load_benchmark_module("child")


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
    """sha256 of the short cell's loss trajectory and final parameters,
    computed in a child process with one BLAS thread."""
    env = {**os.environ, **{var: "1" for var in benchmark_child.THREAD_VARS}}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.run(
        [sys.executable, "-m", "tests.numerics_ledger", "--cell", workload.name],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if child.returncode != 0:
        raise RuntimeError(f"short cell {workload.name} failed:\n{child.stderr}")
    return child.stdout.split()[-1]


def _short_cell_digest_in_process(workload) -> str:
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
    if sys.argv[1:2] == ["--cell"]:
        print(_short_cell_digest_in_process(workloads.BY_NAME[sys.argv[2]]))
    else:
        print(json.dumps({workload.name: short_cell_digest(workload)
                          for workload in workloads.WORKLOADS}, indent=2))
