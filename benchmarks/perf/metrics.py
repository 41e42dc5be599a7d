"""Names, units, directions and bounds of every metric the benchmark reports.

``BENCHMARK.json`` is generated from these tables (``run.py
--write-manifest``); the smoke test checks the two stay in step.
"""

from __future__ import annotations

#: What a user of the system pays or reads off a run.  ``bound`` is the share
#: of the parent's median by which the metric may worsen before a change
#: counts as a regression.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "iter_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
    {"name": "wire_bits_per_worker_iter", "unit": "bits", "better": "lower",
     "bound": 0.01},
]

#: (name, unit, better, the end-to-end metric and workload it should move).
#: Times are self time per post-warm-up iteration unless the note says
#: *setup* (whole duration, before warm-up ends) or *per call*.
PER_LAYER = [
    ("data.get_dataset_ms", "ms", "lower", "setup: setup_s everywhere, most on *_fnn3"),
    ("data.next_batch_us", "us", "lower", "iter_p50_ms on blackout_rejoin_ckpt, async_ps_straggler"),
    ("executor.forward_backward_ms", "ms", "lower", "iter_p50_ms, samples_per_s on lstm_taped_a2sgd, resnet20_conv_a2sgd"),
    ("executor.calls", "count", "lower", "exact; one per lockstep iteration"),
    ("tape.record_ms", "ms", "lower", "setup: first forward_backward minus steady median; setup_s on lstm/resnet"),
    ("compress.compress_batch_ms", "ms", "lower", "iter_p50_ms, run_wall_s on a2sgd_allreduce_fnn3, topk_allgather_fnn3"),
    ("compress.decompress_batch_ms", "ms", "lower", "iter_p50_ms on a2sgd_allreduce_fnn3"),
    ("compress.calls", "count", "lower", "exact; compress_batch + decompress_batch calls"),
    ("compress.payload_bytes_per_iter", "B", "lower", "logical payload bytes per iteration; guards wire_bits_per_worker_iter"),
    ("compress.param_delta.encode_ms", "ms", "lower", "iter_p50_ms on fedavg_noniid_qsgd"),
    ("compress.param_delta.decode_ms", "ms", "lower", "iter_p50_ms on fedavg_noniid_qsgd"),
    ("comm.allreduce_ms", "ms", "lower", "iter_p50_ms on blackout_rejoin_ckpt, a2sgd_allreduce_fnn3"),
    ("comm.allgather_ms", "ms", "lower", "iter_p50_ms on topk_allgather_fnn3"),
    ("comm.neighbor_exchange_ms", "ms", "lower", "0 on every current workload (no gossip workload)"),
    ("comm.calls_per_iter", "count", "lower", "exact; guards wire_bits_per_worker_iter"),
    ("comm.bytes_per_rank_per_iter", "B", "lower", "exact; guards wire_bits_per_worker_iter"),
    ("comm.modelled_s", "s", "lower", "modelled; feeds sim.simulated_time_s"),
    ("sync.exchange_self_ms", "ms", "lower", "iter_p50_ms on blackout_rejoin_ckpt (degraded path)"),
    ("sync.post_step_ms", "ms", "lower", "iter_p50_ms on fedavg_noniid_qsgd"),
    ("sync.finalize_ms", "ms", "lower", "per call: run_wall_s"),
    ("sync.worker_step_us", "us", "lower", "iter_p50_ms on async_ps_straggler"),
    ("optim.step_flat_ms", "ms", "lower", "iter_p50_ms on the two *_fnn3 workloads"),
    ("optim.calls", "count", "lower", "exact"),
    ("trainer.build_ms", "ms", "lower", "setup: setup_s everywhere"),
    ("trainer.loop_self_us", "us", "lower", "iteration interval minus every span: iter_p50_ms on blackout_rejoin_ckpt, fedavg_noniid_qsgd"),
    ("trainer.evaluate_ms", "ms", "lower", "per call: run_wall_s on lstm_taped_a2sgd"),
    ("checkpoint.save_ms", "ms", "lower", "per call: run_wall_s, iter_p95_ms on blackout_rejoin_ckpt"),
    ("checkpoint.bytes", "B", "lower", "size of the last checkpoint file"),
    ("checkpoint.load_ms", "ms", "lower", "load into a fresh trainer after the run"),
    ("sim.engine.event_us", "us", "lower", "self time of the event loop per event: iter_p50_ms on async_ps_straggler"),
    ("sim.engine.events", "count", "lower", "exact"),
    ("sim.lockstep.record_iteration_us", "us", "lower", "iter_p50_ms on blackout_rejoin_ckpt"),
    ("sim.simulated_time_s", "s", "lower", "seeded virtual clock on async_ps_straggler, blackout_rejoin_ckpt; embeds measured compute elsewhere"),
    ("faults.query_us_per_iter", "us", "lower", "iter_p50_ms on blackout_rejoin_ckpt"),
    ("faults.outages", "count", "lower", "exact; guards sim.simulated_time_s"),
    ("faults.rejoins", "count", "lower", "exact; guards sim.simulated_time_s"),
    ("faults.resync_bytes", "B", "lower", "exact; guards sim.simulated_time_s"),
    ("federated.begin_round_us", "us", "lower", "iter_p50_ms, iter_p95_ms on fedavg_noniid_qsgd"),
    ("federated.draw_batches_us", "us", "lower", "iter_p50_ms on fedavg_noniid_qsgd"),
    ("federated.state_swaps", "count", "lower", "exact; rounds whose cohort changed"),
    ("federated.unique_clients", "count", "higher", "exact"),
    ("backends.create_world_ms", "ms", "lower", "setup: setup_s"),
    ("backends.create_executor_ms", "ms", "lower", "setup: setup_s"),
    ("import_ms", "ms", "lower", "setup: setup_s everywhere"),
    ("iter_p95_ms", "ms", "lower", "untraced children; 95th percentile of the iter_p50_ms intervals: round-boundary and epoch-end work"),
    ("quality.iters_to_target", "count", "lower", "seeded, repeats exactly: a speed-up that changes numerics moves it"),
    ("quality.final_metric", "1", "higher", "top-1 % (perplexity on lstm_taped_a2sgd, where lower is better)"),
    ("trace.overhead_share", "1", "lower", "traced vs untraced run_wall_s of one invocation; validity of the table"),
]

PER_LAYER_NAMES = [row[0] for row in PER_LAYER]


def manifest(command, paths, run_seconds, workloads) -> dict:
    """``BENCHMARK.json`` in exactly the shape the builder contract fixes."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _ in PER_LAYER],
    }
