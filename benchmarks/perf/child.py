"""One benchmark run in a fresh process: build, train, close, measure, check.

``run.py`` launches this file once per run so that set-up time and peak RSS
are per-run and every run starts with equally cold caches.  The workload goes
through the public API only::

    ExperimentSpec.from_dict(...).validate()
      -> DistributedTrainer(spec.to_trainer_config(), callbacks=[...])
      -> train() -> close()

The last line of standard output is one JSON object (see :func:`run`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def require_source_tree() -> None:
    """Put the program on ``sys.path``; without it there is nothing to measure."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"benchmark needs the program under {SRC}; not found")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def iters_to_target(losses, target: float, window: int = 20):
    """First iteration count whose trailing-``window`` mean loss <= target."""
    import numpy as np
    trailing = np.convolve(losses, np.ones(window) / window, mode="valid")
    hits = np.flatnonzero(trailing <= target)
    return int(hits[0]) + window if hits.size else None


def samples_per_iteration(trainer) -> int:
    """Samples (tokens for a language model) one stamped iteration consumes."""
    if trainer.spec.task == "language_model":
        return sum(shard.batch_size for shard in trainer.lm_shards) * trainer.config.seq_len
    population = trainer.population
    if population is not None and population.shards is not None:
        batch = population.batch_size
    else:
        batch = trainer.loaders[0].batch_size
    # An async iteration is one rank's event; a lockstep one steps every rank.
    return batch if trainer.is_async else batch * trainer.config.world_size


def run(name: str, seed: int, traced: bool, smoke: bool, t0: float | None = None) -> dict:
    """Run workload ``name`` once and return its measurements.

    ``t0`` is ``time.time()`` in the parent just before launch, so set-up and
    wall time count interpreter start-up.  Returns ``end_to_end`` values,
    ``exact`` values that must repeat bit for bit across runs of one seed,
    the correctness verdict with its ``problems``, and — when ``traced`` —
    ``per_layer`` values and the span ``rollup``.
    """
    entry_wall, entry = time.time(), perf_counter()
    launch_s = entry_wall - t0 if t0 is not None else 0.0
    require_source_tree()
    import numpy as np
    from repro.core.spec import ExperimentSpec
    from repro.core.trainer import DistributedTrainer
    import_s = perf_counter() - entry
    import tracing
    import workloads

    workload = workloads.BY_NAME[name]
    warmup = workloads.WARMUP_ITERATIONS
    scratch = OUT / f"run-{os.getpid()}"
    checkpoint_path = scratch / "checkpoint.npz"
    tracer = tracing.Tracer()
    stamper = tracing.StampCallback(tracer)
    try:
        if traced:
            tracing.install_import_time_wrappers(tracer)
        spec = ExperimentSpec.from_dict(workloads.spec_for(
            workload, seed, smoke=smoke, checkpoint_path=str(checkpoint_path))).validate()
        build_start = perf_counter()
        trainer = DistributedTrainer(spec.to_trainer_config(),
                                     callbacks=[*spec.callbacks, stamper])
        build_s = perf_counter() - build_start
        if traced:
            tracing.install_trainer_wrappers(tracer, trainer)
        try:
            metrics = trainer.train()
            train_end = perf_counter()
        finally:
            trainer.close()
        closed = perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.remove()  # before the checkpoint round-trip builds its untraced trainer

        stamps, losses = stamper.stamps, stamper.losses
        if len(stamps) <= warmup + 1:
            raise SystemExit(f"workload {name} is shorter than the warm-up")
        events_per_iteration = trainer.config.world_size if trainer.is_async else 1
        scheduled = (trainer.config.epochs * trainer.iterations_per_epoch
                     * events_per_iteration)
        final_metric = float(metrics.final_metric)
        wire_bits = float(trainer.wire_bits_per_iteration)
        reached = iters_to_target(losses, workload.target_loss)

        problems = []
        if len(stamps) != scheduled:
            problems.append(f"executed {len(stamps)} of {scheduled} scheduled iterations")
        if not all(math.isfinite(loss) for loss in losses):
            problems.append("non-finite training loss")
        if not (final_metric <= workload.quality_floor
                if metrics.metric_name == "perplexity"
                else final_metric >= workload.quality_floor):
            problems.append(f"final {metrics.metric_name} {final_metric:.4g} misses "
                            f"the quality floor {workload.quality_floor}")
        if not math.isclose(wire_bits, workload.wire_bits, rel_tol=1e-9):
            problems.append(f"wire bits {wire_bits} != stored {workload.wire_bits}")
        if reached is None and not smoke:
            problems.append(f"trailing-20 mean loss never reached {workload.target_loss}")

        warm = stamps[warmup - 1]
        intervals_ms = [(b - a) * 1e3 for a, b in zip(stamps[warmup - 1:], stamps[warmup:])]
        exact = {
            "loss_digest": hashlib.sha256(
                np.asarray(losses, dtype=np.float64).tobytes()).hexdigest(),
            "iters_to_target": reached, "final_metric": final_metric,
            "wire_bits_per_worker_iter": wire_bits}
        if workload.seeded_clock:
            exact["sim_time_s"] = trainer.simulated_time_s
        result = {
            "workload": name, "seed": seed, "traced": traced, "smoke": smoke,
            "problems": problems, "exact": exact,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "end_to_end": {
                "setup_s": launch_s + (warm - entry),
                "run_wall_s": launch_s + (closed - entry),
                "samples_per_s": len(intervals_ms) * samples_per_iteration(trainer)
                                 / (train_end - warm),
                "iter_p50_ms": statistics.median(intervals_ms),
                "peak_rss_mb": peak_rss_mb,
                "wire_bits_per_worker_iter": wire_bits,
            },
            "iter_p95_ms": statistics.quantiles(intervals_ms, n=20, method="inclusive")[-1],
        }
        if traced:
            import layers
            steady = tracing.rollup(tracer.spans, warm, train_end)
            whole = tracing.rollup(tracer.spans, -math.inf, math.inf)
            per_layer = layers.per_layer(steady, whole, trainer, len(stamps), warmup,
                                         train_end - warm)
            durations = [span[tracing.END] - span[tracing.START] for span in tracer.spans
                         if span[tracing.NAME] == "executor.forward_backward"]
            tape_record_s = durations[0] - statistics.median(durations[warmup:]) \
                if len(durations) > warmup else 0.0
            per_layer.update({
                "tape.record_ms": tape_record_s * 1e3,
                "trainer.build_ms": build_s * 1e3, "import_ms": import_s * 1e3,
                "quality.iters_to_target": reached or 0,
                "quality.final_metric": final_metric})
            if workload.checkpoint:
                per_layer.update(layers.checkpoint_round_trip(spec, checkpoint_path, problems))
            result.update(per_layer=per_layer,
                          rollup=layers.rollup_table(steady, len(intervals_ms),
                                                     train_end - warm))
            tracing.write_chrome_trace(tracer.spans, OUT / f"trace_{name}.json")
        result.update(correct=not problems, attempted=scheduled,
                      failed=scheduled if problems else 0)
        return result
    finally:
        tracer.remove()
        shutil.rmtree(scratch, ignore_errors=True)


def calibrate() -> dict:
    """Host calibration kernels and versions for the row stamp (reported, not
    gated): one 512^3 float32 GEMM (median of 20) and one 64 MiB copy."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512), dtype=np.float32)
    b = rng.standard_normal((512, 512), dtype=np.float32)
    out = np.empty_like(a)
    gemm = []
    for _ in range(20):
        start = perf_counter()
        np.matmul(a, b, out=out)
        gemm.append(perf_counter() - start)
    source = np.ones(64 * 2 ** 20, dtype=np.uint8)
    target = np.empty_like(source)
    copies = []
    for _ in range(5):
        start = perf_counter()
        np.copyto(target, source)
        copies.append(perf_counter() - start)
    return {"calib_gemm_ms": statistics.median(gemm) * 1e3,
            "calib_memcpy_ms": statistics.median(copies) * 1e3,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)
    if args.calibrate:
        print(json.dumps(calibrate()))
        return 0
    if args.workload is None:
        parser.error("--workload or --calibrate is required")
    result = run(args.workload, args.seed, bool(args.trace), args.smoke, args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
