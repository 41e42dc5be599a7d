"""Per-layer metrics of a traced run, from the span roll-ups and the trainer.

Layer time is self time (span minus child spans) per post-warm-up iteration
unless the metric is a *setup* one (whole duration) or *per call*; counts are
exact.  The names, units and expected effects are the ``PER_LAYER`` table in
``metrics.py``.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Dict, List


def per_layer(steady: Dict[str, dict], whole: Dict[str, dict], trainer,
              iterations: int, warmup: int, wall: float) -> Dict[str, float]:
    """``steady`` / ``whole``: ``tracing.rollup`` over the post-warm-up window
    (``wall`` seconds long) and over the whole run; ``iterations``: stamped
    iterations including the ``warmup`` ones."""
    post_iterations = iterations - warmup

    def self_per_iteration(name: str, scale: float) -> float:
        return steady.get(name, {}).get("self_s", 0.0) / post_iterations * scale

    def total(name: str, scale: float) -> float:
        return whole.get(name, {}).get("total_s", 0.0) * scale

    def calls(name: str) -> int:
        return whole.get(name, {}).get("calls", 0)

    def per_call(name: str, scale: float) -> float:
        return total(name, scale) / calls(name) if calls(name) else 0.0

    stats = trainer.world.stats
    faults = trainer.fault_injector.report if trainer.fault_injector else None
    population = trainer.population
    history = population.cohort_history if population else []
    spanned = sum(row["self_s"] for row in steady.values())
    return {
        "data.get_dataset_ms": total("data.get_dataset", 1e3),
        "data.next_batch_us": self_per_iteration("data.next_batch", 1e6),
        "executor.forward_backward_ms": self_per_iteration("executor.forward_backward", 1e3),
        "executor.calls": calls("executor.forward_backward"),
        "compress.compress_batch_ms": self_per_iteration("compress.compress_batch", 1e3),
        "compress.decompress_batch_ms": self_per_iteration("compress.decompress_batch", 1e3),
        "compress.calls": calls("compress.compress_batch") + calls("compress.decompress_batch"),
        "compress.payload_bytes_per_iter": stats.logical_payload_bytes / iterations,
        "compress.param_delta.encode_ms": self_per_iteration("compress.param_delta.encode", 1e3),
        "compress.param_delta.decode_ms": self_per_iteration("compress.param_delta.decode", 1e3),
        "comm.allreduce_ms": self_per_iteration("comm.allreduce", 1e3),
        "comm.allgather_ms": self_per_iteration("comm.allgather", 1e3),
        "comm.neighbor_exchange_ms": self_per_iteration("comm.neighbor_exchange", 1e3),
        "comm.calls_per_iter": sum(stats.collective_counts.values()) / iterations,
        "comm.bytes_per_rank_per_iter": stats.bytes_sent_per_rank / iterations,
        "comm.modelled_s": stats.simulated_time_s,
        "sync.exchange_self_ms": self_per_iteration("sync.exchange", 1e3),
        "sync.post_step_ms": self_per_iteration("sync.post_step", 1e3),
        "sync.finalize_ms": per_call("sync.finalize", 1e3),
        "sync.worker_step_us": self_per_iteration("sync.worker_step", 1e6),
        "optim.step_flat_ms": self_per_iteration("optim.step_flat", 1e3),
        "optim.calls": calls("optim.step_flat"),
        "trainer.loop_self_us": (wall - spanned) / post_iterations * 1e6,
        "trainer.evaluate_ms": per_call("trainer.evaluate", 1e3),
        "checkpoint.save_ms": per_call("checkpoint.save", 1e3),
        "checkpoint.bytes": 0,
        "checkpoint.load_ms": 0.0,
        "sim.engine.event_us": self_per_iteration("sim.engine.run", 1e6),
        "sim.engine.events": trainer.sim_engine.total_steps if trainer.sim_engine else 0,
        "sim.lockstep.record_iteration_us":
            self_per_iteration("sim.lockstep.record_iteration", 1e6),
        "sim.simulated_time_s": trainer.simulated_time_s,
        "faults.query_us_per_iter": self_per_iteration("faults.query", 1e6),
        "faults.outages": sum(faults.down_transitions_per_rank) if faults else 0,
        "faults.rejoins": sum(faults.rejoins_per_rank) if faults else 0,
        "faults.resync_bytes": faults.resync_bytes if faults else 0.0,
        "federated.begin_round_us": self_per_iteration("federated.begin_round", 1e6),
        "federated.draw_batches_us": self_per_iteration("federated.draw_batches", 1e6),
        "federated.state_swaps": sum(1 for a, b in zip(history, history[1:]) if a != b),
        "federated.unique_clients":
            population.summary()["unique_clients_seen"] if population else 0,
        "backends.create_world_ms": total("backends.create_world", 1e3),
        "backends.create_executor_ms": total("backends.create_executor", 1e3),
        # Both filled in by run.py from the untraced children of the same seed.
        "iter_p95_ms": 0.0,
        "trace.overhead_share": 0.0,
    }


def rollup_table(steady: Dict[str, dict], post_iterations: int, wall: float) -> List[dict]:
    """The post-warm-up roll-up, largest self time first, closed by the wall
    not inside any span (``trainer.loop_self``); shares add up to 1."""
    table = [{"span": name, "calls": row["calls"], "total_ms": row["total_s"] * 1e3,
              "self_ms": row["self_s"] * 1e3, "share": row["self_s"] / wall}
             for name, row in sorted(steady.items(), key=lambda item: -item[1]["self_s"])]
    rest = wall - sum(row["self_s"] for row in steady.values())
    table.append({"span": "trainer.loop_self", "calls": post_iterations,
                  "total_ms": rest * 1e3, "self_ms": rest * 1e3, "share": rest / wall})
    return table


def checkpoint_round_trip(spec, path: Path, problems: List[str]) -> Dict[str, float]:
    """Load the run's last checkpoint into a fresh (untraced) trainer; a
    restored parameter vector that differs from the saved one is a problem."""
    import numpy as np
    from repro.core.checkpoint import load_checkpoint
    from repro.core.flatten import flatten_parameters
    from repro.core.trainer import DistributedTrainer

    saved = np.load(path, allow_pickle=False)
    with DistributedTrainer(spec.to_trainer_config()) as fresh:
        start = perf_counter()
        load_checkpoint(fresh, path)
        load_ms = (perf_counter() - start) * 1e3
        for rank, replica in enumerate(fresh.replicas):
            if not np.array_equal(flatten_parameters(replica), saved[f"params_{rank}"]):
                problems.append(f"checkpoint round-trip changed rank {rank}'s parameters")
    return {"checkpoint.bytes": path.stat().st_size, "checkpoint.load_ms": load_ms}
