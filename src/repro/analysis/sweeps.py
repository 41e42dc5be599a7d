"""Grid-sweep helpers used by the CLI and the figure benchmarks.

A sweep is a grid over (models × algorithms × worker counts).  Two kinds are
provided:

* :func:`convergence_sweep` — actually trains the tiny presets with the
  simulated trainer (the Figure 3 data path);
* :func:`cost_sweep` — evaluates the analytic cost model at paper scale (the
  Figure 4/5 and Table 2 data path).

Both return plain nested dicts so results can be serialized with
:func:`repro.utils.serialization.save_json` and rendered with the helpers in
:mod:`repro.analysis.reporting`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.cost_model import CostModel
from repro.core.experiment import run_experiment
from repro.core.spec import ExperimentSpec

DEFAULT_ALGORITHMS = ("dense", "topk", "qsgd", "gaussiank", "a2sgd")


def convergence_sweep(model: str, algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
                      world_sizes: Sequence[int] = (2, 4, 8), epochs: int = 3,
                      max_iterations_per_epoch: int = 12, seed: int = 0,
                      sparsifier_ratio: float = 0.05,
                      base_lr: Optional[float] = None,
                      sync: Optional[dict] = None) -> Dict[str, Dict]:
    """Train ``model`` (tiny preset) for every (algorithm, world size) cell.

    ``sync`` optionally selects a synchronization setup for every cell
    (``{"strategy": "local_sgd", "period": 4}``); None runs the paper's
    allreduce + mean.  Returns ``{world_size: {algorithm: {"epochs": [...],
    "metric": [...], "final": float, "wire_bits": float}}}`` (keys
    stringified for JSON).
    """
    base = ExperimentSpec(
        model=model, preset="tiny", epochs=epochs, batch_size=16,
        max_iterations_per_epoch=max_iterations_per_epoch,
        num_train=384, num_test=96, seed=seed, base_lr=base_lr, seq_len=10,
        sync=sync,
    )
    results: Dict[str, Dict] = {}
    for world_size in world_sizes:
        row: Dict[str, Dict] = {}
        for algorithm in algorithms:
            kwargs = ({"ratio": sparsifier_ratio}
                      if algorithm in ("topk", "gaussiank", "randk", "dgc") else {})
            spec = base.replace(algorithm=algorithm, world_size=world_size,
                                compressor_kwargs=kwargs)
            result = run_experiment(spec)
            row[algorithm] = {
                "epochs": list(result.metrics.epochs),
                "metric": [float(v) for v in result.metrics.metric],
                "final": float(result.final_metric),
                "metric_name": result.metric_name,
                "wire_bits": float(result.wire_bits_per_iteration),
                "simulated_comm_s": float(result.timeline.communication_s),
            }
        results[str(world_size)] = row
    return results


DEFAULT_SYNC_SETUPS = {
    "allreduce": {"strategy": "allreduce"},
    "local_sgd_h4": {"strategy": "local_sgd", "period": 4},
    "gossip_ring": {"strategy": "gossip", "topology": "ring"},
    # Compressed parameter exchange: the decentralized strategies ship
    # per-rank deltas against the last synchronized reference instead of
    # dense float32 vectors (quantized gossip / compressed local SGD).
    # levels >= sqrt(bucket_size): error feedback needs a contractive
    # compressor (see repro.compress.param_delta), and QSGD's default
    # levels=4 @ bucket 512 is not.
    "local_sgd_h4_qsgd": {"strategy": "local_sgd", "period": 4,
                          "parameter_compression": "qsgd",
                          "parameter_compression_kwargs": {"levels": 16,
                                                           "bucket_size": 64}},
    # ratio 0.1 matches dense-gossip accuracy on the tiny presets at ~10x
    # less steady-state parameter traffic.
    "gossip_ring_topk": {"strategy": "gossip", "topology": "ring",
                         "parameter_compression": "topk",
                         "parameter_compression_kwargs": {"ratio": 0.1}},
}


def synchronization_sweep(model: str = "fnn3", algorithm: str = "dense",
                          world_size: int = 4, epochs: int = 3,
                          sync_setups: Optional[Dict[str, dict]] = None,
                          max_iterations_per_epoch: int = 12,
                          seed: int = 0) -> Dict[str, Dict]:
    """Train one (model, algorithm) cell under several synchronization setups.

    ``sync_setups`` maps a label to a sync-section dict
    (:class:`~repro.sync.SyncSpec` form); defaults compare the paper's
    allreduce against local SGD (H=4) and ring gossip.  Returns
    ``{label: {"epochs": [...], "metric": [...], "final": float,
    "simulated_comm_s": float, "wire_bits": float}}``.
    """
    setups = sync_setups if sync_setups is not None else DEFAULT_SYNC_SETUPS
    base = ExperimentSpec(
        model=model, preset="tiny", algorithm=algorithm, world_size=world_size,
        epochs=epochs, batch_size=16, max_iterations_per_epoch=max_iterations_per_epoch,
        num_train=384, num_test=96, seed=seed, seq_len=10,
    )
    results: Dict[str, Dict] = {}
    for label, sync in setups.items():
        result = run_experiment(base.replace(sync=dict(sync)))
        results[label] = {
            "epochs": list(result.metrics.epochs),
            "metric": [float(v) for v in result.metrics.metric],
            "final": float(result.final_metric),
            "metric_name": result.metric_name,
            "wire_bits": float(result.wire_bits_per_iteration),
            "simulated_comm_s": float(result.timeline.communication_s),
        }
    return results


DEFAULT_TIME_SETUPS = {
    "allreduce": {"strategy": "allreduce"},
    "async_ps": {"strategy": "async_ps"},
    "easgd": {"strategy": "easgd", "period": 4},
}


def time_to_accuracy_sweep(model: str = "fnn3", algorithm: str = "dense",
                           world_size: int = 4, epochs: int = 3,
                           compute_model: object = None,
                           clock_seed: int = 0,
                           target: Optional[float] = None,
                           sync_setups: Optional[Dict[str, dict]] = None,
                           max_iterations_per_epoch: int = 12,
                           seed: int = 0) -> Dict[str, Dict]:
    """Compare strategies on the virtual clock: time-to-accuracy, not epochs.

    Every setup trains the same (model, algorithm) cell under the same
    ``compute_model`` (default: a straggler fabric where the last rank runs
    8x slower — the regime where asynchrony pays) and the same
    ``clock_seed``.  Returns ``{label: {"metric": [...],
    "simulated_time_s": [...], "final": float, "time_to_target": float}}``
    where ``time_to_target`` is the interpolated first crossing of
    ``target`` (defaulting to the *worst* setup's final metric, so every
    setup has a finite number to compare on its own curve).
    """
    from repro.analysis.convergence import time_to_accuracy

    setups = sync_setups if sync_setups is not None else DEFAULT_TIME_SETUPS
    if compute_model is None:
        compute_model = {"name": "straggler", "slowdown": 8.0, "sigma": 0.3}
    base = ExperimentSpec(
        model=model, preset="tiny", algorithm=algorithm, world_size=world_size,
        epochs=epochs, batch_size=16, max_iterations_per_epoch=max_iterations_per_epoch,
        num_train=384, num_test=96, seed=seed, seq_len=10,
        compute_model=compute_model, clock_seed=clock_seed,
    )
    results: Dict[str, Dict] = {}
    for label, sync in setups.items():
        result = run_experiment(base.replace(sync=dict(sync)))
        results[label] = {
            "epochs": list(result.metrics.epochs),
            "metric": [float(v) for v in result.metrics.metric],
            "metric_name": result.metric_name,
            "final": float(result.final_metric),
            "simulated_time_s": [float(v) for v in result.metrics.simulated_time_s],
            "total_simulated_s": float(result.sim["simulated_time_s"]),
            "sim": result.sim,
        }
    higher_is_better = all(r["metric_name"] == "top1" for r in results.values())
    if target is None and results:
        finals = [r["final"] for r in results.values()]
        target = min(finals) if higher_is_better else max(finals)
    for row in results.values():
        row["target"] = float(target)
        row["time_to_target"] = time_to_accuracy(
            row["simulated_time_s"], row["metric"], target,
            higher_is_better=higher_is_better)
    return results


def cost_sweep(models: Sequence[str] = ("fnn3", "vgg16", "resnet20", "lstm_ptb"),
               algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
               world_sizes: Sequence[int] = (2, 4, 8, 16),
               cost_model: Optional[CostModel] = None) -> Dict[str, Dict]:
    """Evaluate iteration/total time and scaling efficiency at paper scale."""
    cost_model = cost_model if cost_model is not None else CostModel()
    sweep: Dict[str, Dict] = {}
    for model in models:
        per_model: Dict[str, Dict] = {}
        for algorithm in algorithms:
            per_model[algorithm] = {
                "iteration_s": [cost_model.iteration_time(model, algorithm, p)
                                for p in world_sizes],
                "total_s": [cost_model.total_training_time(model, algorithm, p)
                            for p in world_sizes],
                "scaling_efficiency_at_8": cost_model.scaling_efficiency(model, algorithm, 8),
                "communication_bits": cost_model.communication_bits(
                    algorithm, cost_model.model_parameters(model)),
            }
        sweep[model] = {"world_sizes": list(world_sizes), "algorithms": per_model}
    return sweep


def best_algorithm_by_total_time(sweep: Dict[str, Dict], model: str,
                                 world_size: int) -> str:
    """Name of the fastest algorithm for (model, world size) in a cost sweep."""
    entry = sweep[model]
    index = entry["world_sizes"].index(world_size)
    totals = {name: data["total_s"][index] for name, data in entry["algorithms"].items()}
    return min(totals, key=totals.get)
