"""Performance harness for the execution backends.

Times full fused training iterations (forward/backward → compression →
collective → optimizer step) on the same workload under every backend
configuration:

* **inprocess** — the single-process batched executors (the baseline
  every other backend must match bit for bit).
* **multiprocessing @ k workers** — the forward/backward stage fanned out to
  ``k`` long-lived worker processes over shared-memory flat buffers
  (:mod:`repro.backends.multiprocess`); ``k`` ∈ {1, 2, 4} by default.

The result dictionary is what ``BENCH_backend.json`` stores; successive PRs
append runs so the repository accumulates a perf trajectory.  Runnable
without pytest via ``python -m repro bench-backend``.

Reading the numbers: the multiprocessing backend parallelizes only the
gradients stage (exchange and the optimizer step stay in the parent), so its
ceiling is Amdahl over the gradients fraction — and the *hardware* ceiling is
``host.cpu_count``: on a single-core host every worker shares one core and
the barrier/IPC overhead is pure loss, which the ``stage_regressions`` field
records honestly rather than hiding.
"""

from __future__ import annotations

import json
import os
import platform
import time
import warnings
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.trainer import DistributedTrainer, TrainerConfig
from repro.version import __version__

#: Smallest per-iteration delta (ms) treated as a real regression; anything
#: under it is timer noise (same floor as perf_pipeline).
NOISE_FLOOR_MS = 0.05

#: Untimed iterations per trainer before the clock starts: the first
#: iteration spawns the multiprocessing workers and records the tapes, and
#: per-iteration cost is what the benchmark is about.
WARMUP_ITERATIONS = 2


def _build_trainer(*, model: str, algorithm: str, world_size: int,
                   iterations: int, seed: int, backend: str,
                   num_workers: Optional[int]) -> DistributedTrainer:
    backend_kwargs = {} if num_workers is None else {"num_workers": num_workers}
    config = TrainerConfig(model=model, preset="tiny", algorithm=algorithm,
                           world_size=world_size, epochs=1, seed=seed,
                           max_iterations_per_epoch=iterations,
                           backend=backend, backend_kwargs=backend_kwargs,
                           num_train=max(1024, 16 * world_size * iterations),
                           num_test=64)
    return DistributedTrainer(config)


def _time_backend(trainer: DistributedTrainer, iterations: int) -> Dict[str, float]:
    """Time ``iterations`` full fused iterations after warm-up (stages in ms)."""
    stage = {"gradients_s": 0.0, "exchange_s": 0.0, "apply_s": 0.0}
    per_epoch = trainer.iterations_per_epoch
    iterators = trainer._epoch_iterators()
    timed = 0
    wall = 0.0
    for iteration in range(WARMUP_ITERATIONS + iterations):
        if iteration and iteration % per_epoch == 0:
            iterators = trainer._epoch_iterators()
        batches = [next(it) for it in iterators]
        progress = iteration / max(1, iterations)

        t0 = time.perf_counter()
        G, _loss, _states = trainer._gradients(batches, None)
        t1 = time.perf_counter()
        new, report = trainer._exchange(G)
        t2 = time.perf_counter()
        trainer._apply(new, progress)
        t3 = time.perf_counter()
        trainer._parameter_phase(report)
        t4 = time.perf_counter()
        if iteration < WARMUP_ITERATIONS:
            continue                  # worker spawn / tape recording excluded
        timed += 1
        stage["gradients_s"] += t1 - t0
        stage["exchange_s"] += (t2 - t1) + (t4 - t3)
        stage["apply_s"] += t3 - t2
        wall += t4 - t0
    scale = 1e3 / max(1, timed)
    return {
        "iteration_ms": wall * scale,
        "gradients_ms": stage["gradients_s"] * scale,
        "exchange_ms": stage["exchange_s"] * scale,
        "apply_ms": stage["apply_s"] * scale,
    }


def run_backend_benchmark(model: str = "resnet20", algorithm: str = "a2sgd",
                          world_size: int = 4,
                          workers: Sequence[int] = (1, 2, 4),
                          iterations: int = 20, repeats: int = 3,
                          seed: int = 0) -> Dict:
    """Time inprocess vs multiprocessing at each worker count.

    Every configuration runs the identical workload (same model, data, seeds
    — the backends are bit-identical, so the comparison is pure wall clock).
    Each is timed ``repeats`` times on a fresh trainer (best run kept) with
    :data:`WARMUP_ITERATIONS` untimed iterations per trainer so worker spawn
    and tape recording don't pollute the per-iteration cost.  Worker counts
    exceeding ``world_size`` are skipped (a shard cannot be empty).
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    configs = [("inprocess", None)]
    skipped = [w for w in workers if w > world_size]
    configs += [("multiprocessing", int(w)) for w in workers if w <= world_size]

    timings: Dict[str, Dict[str, float]] = {}
    for backend, num_workers in configs:
        label = backend if num_workers is None else f"{backend}@{num_workers}"
        best: Optional[Dict[str, float]] = None
        for _ in range(repeats):
            trainer = _build_trainer(model=model, algorithm=algorithm,
                                     world_size=world_size, iterations=iterations,
                                     seed=seed, backend=backend,
                                     num_workers=num_workers)
            try:
                timing = _time_backend(trainer, iterations)
            finally:
                trainer.close()
            if best is None or timing["iteration_ms"] < best["iteration_ms"]:
                best = timing
        timings[label] = best

    base = timings["inprocess"]
    multiprocessing_runs: Dict[str, Dict[str, float]] = {}
    stage_regressions = []
    for backend, num_workers in configs:
        if num_workers is None:
            continue
        label = f"{backend}@{num_workers}"
        entry = dict(timings[label])
        entry["speedup"] = base["iteration_ms"] / entry["iteration_ms"]
        entry["gradients_speedup"] = (base["gradients_ms"] / entry["gradients_ms"]
                                      if entry["gradients_ms"] > 0 else float("inf"))
        multiprocessing_runs[str(num_workers)] = entry
        # Honest accounting: a worker count that is *slower* end to end than
        # the in-process baseline is a regression row, noise floor applied.
        if (entry["speedup"] < 1.0
                and entry["iteration_ms"] - base["iteration_ms"] > NOISE_FLOOR_MS):
            stage_regressions.append(f"workers={num_workers}:iteration_ms")

    cpu_count = os.cpu_count() or 1
    result = {
        "benchmark": "backend",
        "version": __version__,
        "workload": {"model": model, "preset": "tiny", "algorithm": algorithm,
                     "world_size": world_size, "iterations": iterations,
                     "repeats": repeats, "seed": seed,
                     "workers": [int(w) for w in workers]},
        "host": {"platform": platform.platform(),
                 "python": platform.python_version(),
                 "numpy": np.__version__,
                 "cpu_count": cpu_count},
        "inprocess": base,
        "multiprocessing": multiprocessing_runs,
        "stage_regressions": sorted(stage_regressions),
    }
    if skipped:
        result["skipped_workers"] = [int(w) for w in skipped]
    if cpu_count < max([1, *[w for _, w in configs if w]]):
        result["note"] = (f"host has {cpu_count} CPU core(s): worker processes "
                          f"time-share the core(s), so parallel speedup is "
                          f"hardware-bound; regressions here measure IPC/"
                          f"barrier overhead, not a code path getting slower")
    if stage_regressions:
        warnings.warn(f"multiprocessing backend slower than inprocess on "
                      f"{model}: " + ", ".join(sorted(stage_regressions)),
                      RuntimeWarning, stacklevel=2)
    return result


def write_benchmark_json(result: Dict, path: str | Path) -> Path:
    """Append ``result`` to the ``runs`` list in a BENCH_backend.json file."""
    path = Path(path)
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError:
            document = {}
    else:
        document = {}
    runs = document.get("runs", [])
    runs.append(result)
    document = {
        "description": "Inprocess vs multiprocessing execution-backend "
                       "timings (ms per iteration; see README: Execution "
                       "backends)",
        "runs": runs,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def format_benchmark(result: Dict) -> str:
    """Human-readable rendering of one backend benchmark result."""
    w = result["workload"]
    regressions = set(result.get("stage_regressions", ()))
    lines = [
        f"Execution backend benchmark — {w['model']}/{w['preset']}, "
        f"{w['algorithm']}, P={w['world_size']}, {w['iterations']} iterations "
        f"(host: {result['host']['cpu_count']} CPU core(s))",
        f"{'backend':<22}{'iteration':>12}{'gradients':>12}{'exchange':>12}"
        f"{'apply':>12}{'speedup':>10}",
    ]
    base = result["inprocess"]
    lines.append(f"{'inprocess':<22}{base['iteration_ms']:>10.3f}ms"
                 f"{base['gradients_ms']:>10.3f}ms{base['exchange_ms']:>10.3f}ms"
                 f"{base['apply_ms']:>10.3f}ms{'1.00x':>10}")
    for count, entry in sorted(result["multiprocessing"].items(),
                               key=lambda kv: int(kv[0])):
        row = (f"{f'multiprocessing@{count}':<22}{entry['iteration_ms']:>10.3f}ms"
               f"{entry['gradients_ms']:>10.3f}ms{entry['exchange_ms']:>10.3f}ms"
               f"{entry['apply_ms']:>10.3f}ms{entry['speedup']:>9.2f}x")
        if f"workers={count}:iteration_ms" in regressions:
            row += "  << REGRESSION"
        lines.append(row)
    if result.get("note"):
        lines.append(f"note: {result['note']}")
    return "\n".join(lines)
