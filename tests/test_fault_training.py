"""Training under injected faults: graceful degradation for every strategy,
rejoin catch-up accounting, fault-timeline determinism, the bit-identical
``--fault-model none`` guarantee, mid-blackout checkpoint resume, the
``intermittent_dropout`` membership bridge and the fault columns of the
metrics CSV (tentpole: fault injection and graceful degradation)."""

import math

import numpy as np
import pytest

from repro.backends import base as backends_base
from repro.core import batched_replicas
from repro.core import (DistributedTrainer, TrainerConfig, load_checkpoint,
                        save_checkpoint)
from repro.core.callbacks import Callback
from repro.core.flatten import flatten_parameters



class StopAfterEpoch(Callback):
    """Interrupt training after ``epochs`` completed epochs (mid-run stop)."""

    def __init__(self, epochs: int):
        self.epochs = int(epochs)

    def on_epoch_end(self, state) -> None:
        if state.epoch + 1 >= self.epochs:
            state.stop_requested = True


def make_config(**overrides) -> TrainerConfig:
    base = dict(model="fnn3", preset="tiny", algorithm="dense", world_size=4,
                epochs=2, batch_size=8, max_iterations_per_epoch=4,
                num_train=128, num_test=32, seed=0)
    base.update(overrides)
    return TrainerConfig(**base)


def make_trainer(stop_after: int = 0, **overrides) -> DistributedTrainer:
    callbacks = [StopAfterEpoch(stop_after)] if stop_after else None
    return DistributedTrainer(make_config(**overrides), callbacks=callbacks)


def final_params(trainer: DistributedTrainer) -> np.ndarray:
    return np.stack([flatten_parameters(m) for m in trainer.replicas])


STRATEGIES = {
    "allreduce": {},
    "trimmed_mean": {"sync": {"aggregator": "trimmed_mean",
                              "aggregator_kwargs": {"trim_ratio": 0.25}}},
    "local_sgd": {"sync": {"strategy": "local_sgd", "period": 2}},
    "gossip": {"sync": {"strategy": "gossip", "topology": "ring"}},
    "async_ps": {"sync": {"strategy": "async_ps"}},
    "easgd": {"sync": {"strategy": "easgd", "period": 2}},
}

#: The same grid on the language-model task (BPTT state carried per rank or
#: stacked, LM shards instead of loaders) — ids keep the fnn3 cells' names.
LM = dict(model="lstm_ptb", algorithm="a2sgd", num_train=800, num_test=160,
          seq_len=8, batch_size=None)
LM_STRATEGIES = {f"lstm_ptb-{name}": dict(LM, **overrides)
                 for name, overrides in STRATEGIES.items()}

FAULTS = {
    "crash": {"model": "crash_stop",
              "model_kwargs": {"ranks": [3], "at_s": 0.01}},
    "blackout": {"model": "transient_blackout",
                 "model_kwargs": {"mean_down_s": 0.02, "mean_up_s": 0.03}},
    "message_loss": {"model": "message_loss", "model_kwargs": {"p": 0.3}},
}


class TestGracefulDegradation:
    """Every strategy survives every fault schedule: the run completes (no
    deadlocked barrier), the final loss and parameters are finite, and the
    FaultReport accounts for what was injected."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES) + sorted(LM_STRATEGIES))
    def test_run_completes_with_finite_state(self, strategy, fault):
        trainer = make_trainer(faults=FAULTS[fault], fault_seed=9,
                               **{**STRATEGIES, **LM_STRATEGIES}[strategy])
        metrics = trainer.train()
        assert math.isfinite(metrics.train_loss[-1])
        assert np.all(np.isfinite(final_params(trainer)))
        report = trainer.fault_injector.report
        assert not report.empty
        if fault in ("crash", "blackout"):
            assert report.total_downtime_s > 0.0
            assert sum(report.down_transitions_per_rank) > 0
        else:
            assert report.dropped_messages > 0

    def test_crashed_rank_is_frozen_while_survivors_advance(self):
        trainer = make_trainer(faults={"model": "crash_stop",
                                       "model_kwargs": {"ranks": [3],
                                                        "at_s": 0.0}})
        initial = final_params(trainer)
        trainer.train()
        params = final_params(trainer)
        # Dead from t=0: rank 3 never takes a step and is excluded from the
        # final consolidation, so it still holds its initial parameters.
        np.testing.assert_array_equal(params[3], initial[3])
        assert not np.array_equal(params[0], params[3])
        # Survivors keep allreduce consensus among themselves.
        np.testing.assert_array_equal(params[0], params[1])
        np.testing.assert_array_equal(params[0], params[2])

    def test_blackout_rejoins_are_priced_resyncs(self):
        trainer = make_trainer(faults=FAULTS["blackout"], fault_seed=9,
                               epochs=3, **STRATEGIES["local_sgd"])
        trainer.train()
        report = trainer.fault_injector.report
        assert sum(report.rejoins_per_rank) > 0
        assert report.resyncs == sum(report.rejoins_per_rank)
        # Each catch-up ships the dense float32 parameter vector.
        expected = 4.0 * trainer.num_parameters * report.resyncs
        assert report.resync_bytes == pytest.approx(expected)
        assert report.barrier_timeouts > 0  # discoveries were priced too

    def test_lockstep_message_loss_prices_bounded_retransmits(self):
        trainer = make_trainer(faults=FAULTS["message_loss"], fault_seed=2)
        healthy = make_trainer()
        trainer.train()
        healthy.train()
        report = trainer.fault_injector.report
        assert report.dropped_messages > 0
        assert report.retries > 0
        # Retransmission costs time, never numerics: parameters match the
        # healthy run exactly while the simulated clock runs behind.
        np.testing.assert_array_equal(final_params(trainer),
                                      final_params(healthy))
        assert trainer.simulated_time_s > 0.0

    def test_async_ps_drops_lost_pushes(self):
        trainer = make_trainer(faults=FAULTS["message_loss"], fault_seed=2,
                               **STRATEGIES["async_ps"])
        trainer.train()
        report = trainer.fault_injector.report
        assert report.dropped_messages > 0

    def test_all_ranks_down_recoverable_world_idles_and_returns(self):
        # Aggressive churn: long blackouts, tiny up-phases — the whole world
        # is regularly down at once.  A recoverable model must idle to the
        # first rejoin instead of raising or deadlocking.
        trainer = make_trainer(
            epochs=1,
            faults={"model": "transient_blackout",
                    "model_kwargs": {"mean_down_s": 0.5, "mean_up_s": 0.01}},
            fault_seed=1)
        metrics = trainer.train()
        assert math.isfinite(metrics.train_loss[-1])
        report = trainer.fault_injector.report
        assert sum(report.rejoins_per_rank) > 0

    def test_permanent_all_crash_stops_the_run(self):
        trainer = make_trainer(
            faults={"model": "crash_stop",
                    "model_kwargs": {"ranks": [0, 1, 2, 3], "at_s": 0.01}})
        trainer.train()
        report = trainer.fault_injector.report
        assert sum(report.down_transitions_per_rank) == 4
        # The run ended early instead of deadlocking a collective over zero
        # participants.
        assert trainer.state.stop_requested


class TestFaultPhaseQueries:
    """The barrier's fault phase asks for each rank's outage once per time
    point: once at the iteration's start, and once more at the horizon when
    the whole world is down and idles to the first rejoin."""

    @pytest.mark.parametrize("mean_down_s,mean_up_s", [(0.02, 0.03), (0.5, 0.01)])
    def test_one_lookup_per_rank_per_time_point(self, mean_down_s, mean_up_s):
        calls = []

        class MarkIterations(Callback):
            def on_iteration_start(self, state) -> None:
                calls.append(None)

        trainer = DistributedTrainer(make_config(
            epochs=1, faults={"model": "transient_blackout",
                              "model_kwargs": {"mean_down_s": mean_down_s,
                                               "mean_up_s": mean_up_s}},
            fault_seed=1), callbacks=[MarkIterations()])
        injector = trainer.fault_injector
        lookup = injector.down_interval

        def counted(rank, t):
            calls.append((rank, t))
            return lookup(rank, t)

        injector.down_interval = counted
        trainer.train()
        iterations, advances = [], 0
        for call in calls:
            if call is None:
                iterations.append([])
            else:
                iterations[-1].append(call)
        assert len(iterations) == trainer.iterations_per_epoch
        world = range(trainer.config.world_size)
        for queries in iterations:
            times = sorted({t for _, t in queries})
            assert len(times) in (1, 2)
            advances += len(times) - 1
            for t in times:
                assert sorted(rank for rank, when in queries if when == t) == list(world)
        if mean_down_s > mean_up_s:
            assert advances > 0


class TestFaultDeterminism:
    def test_same_fault_seed_reproduces_timeline_and_parameters(self):
        runs = []
        for _ in range(2):
            trainer = make_trainer(faults=FAULTS["blackout"], fault_seed=9,
                                   **STRATEGIES["local_sgd"])
            trainer.train()
            runs.append(trainer)
        first, second = runs
        assert first.fault_injector.report.as_dict() \
            == second.fault_injector.report.as_dict()
        np.testing.assert_array_equal(final_params(first),
                                      final_params(second))
        assert first.simulated_time_s == second.simulated_time_s

    def test_async_and_lockstep_share_one_executor_and_the_resync(
            self, monkeypatch):
        # The executor selection rule and the rejoin re-sync are written
        # once; the lockstep trainer and the async engine both run the one
        # stacked P = 4 executor the trainer builds and the one re-sync, and
        # every gradient must come from that executor (a re-forked copy
        # would stop counting here).  The engine's waves compute several
        # ranks per call, so they need fewer calls than events.
        built, rejoined = [], []
        original_build = batched_replicas.build_replica_executor
        original_rejoin = DistributedTrainer._rejoin_rank

        def counting_build(replicas, world, task):
            built.append(world.world_size)
            return original_build(replicas, world, task)

        def counting_rejoin(self, rank):
            rejoined.append(rank)
            return original_rejoin(self, rank)

        monkeypatch.setattr(backends_base, "build_replica_executor", counting_build)
        monkeypatch.setattr(batched_replicas, "build_replica_executor", counting_build)
        monkeypatch.setattr(DistributedTrainer, "_rejoin_rank", counting_rejoin)
        for name in ("async_ps", "allreduce"):
            built.clear()
            rejoined.clear()
            trainer = make_trainer(faults=FAULTS["blackout"], fault_seed=9,
                                   epochs=3, **STRATEGIES[name])
            assert built == [4]
            trainer.train()
            rejoins = sum(trainer.fault_injector.report.rejoins_per_rank)
            assert rejoins > 0 and len(rejoined) == rejoins
            stats = trainer.executor.tape_stats
            runs = stats["recorded"] + stats["replays"]
            events = trainer.timeline.iterations
            if trainer.is_async:
                assert 0 < runs < events <= 4 * runs
            else:
                assert runs == events > 0

    def test_fault_timeline_is_world_size_invariant(self):
        # Per-rank schedule streams never involve world_size: rank r's
        # outage history under --seed-faults S is identical at P = 2, 4, 8.
        histories = {}
        for world_size in (2, 4, 8):
            trainer = make_trainer(world_size=world_size,
                                   faults=FAULTS["blackout"], fault_seed=9)
            injector = trainer.fault_injector
            grid = [k * 0.01 for k in range(500)]
            histories[world_size] = [
                [injector.down_interval(rank, t) for t in grid]
                for rank in range(2)]
        assert histories[2] == histories[4][:2] == histories[8][:2]

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_fault_model_none_is_bit_identical(self, strategy):
        # The default fault configuration must not perturb a single bit of
        # the healthy trajectory, for any strategy.
        base = STRATEGIES[strategy]
        healthy = make_trainer(**base)
        explicit = make_trainer(faults={"model": "none",
                                        "barrier_timeout_s": 0.5,
                                        "max_retries": 7},
                                fault_seed=123, **base)
        assert explicit.fault_injector is None
        healthy_metrics = healthy.train()
        explicit_metrics = explicit.train()
        np.testing.assert_array_equal(final_params(healthy),
                                      final_params(explicit))
        assert healthy_metrics.train_loss == explicit_metrics.train_loss


class TestCheckpointResumeMidBlackout:
    KW = dict(epochs=3, faults=FAULTS["blackout"], fault_seed=9)

    def test_resume_matches_uninterrupted_faulty_run(self, tmp_path):
        uninterrupted = make_trainer(**self.KW)
        uninterrupted.train()

        first_half = make_trainer(stop_after=1, **self.KW)
        first_half.train()
        # The checkpoint is taken mid-fault-history: membership, counters
        # and report state all have something to carry.
        assert not first_half.fault_injector.report.empty
        path = save_checkpoint(first_half, tmp_path / "ckpt.npz")

        resumed = make_trainer(**self.KW)
        load_checkpoint(resumed, path)
        resumed.train()

        np.testing.assert_array_equal(final_params(uninterrupted),
                                      final_params(resumed))
        assert resumed.fault_injector.report.as_dict() \
            == uninterrupted.fault_injector.report.as_dict()
        assert resumed.simulated_time_s == uninterrupted.simulated_time_s
        assert resumed.metrics.train_loss == uninterrupted.metrics.train_loss
        assert resumed.metrics.rejected_pushes \
            == uninterrupted.metrics.rejected_pushes
        assert resumed.metrics.mean_staleness \
            == uninterrupted.metrics.mean_staleness

    def test_fault_state_round_trips_through_checkpoint(self, tmp_path):
        trainer = make_trainer(stop_after=1, **self.KW)
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        fresh = make_trainer(**self.KW)
        load_checkpoint(fresh, path)
        original, restored = trainer.fault_injector, fresh.fault_injector
        np.testing.assert_array_equal(restored.membership.alive,
                                      original.membership.alive)
        np.testing.assert_array_equal(restored._message_counters,
                                      original._message_counters)
        np.testing.assert_array_equal(restored._stall_counters,
                                      original._stall_counters)
        np.testing.assert_array_equal(restored.needs_catchup,
                                      original.needs_catchup)
        assert restored.report.as_dict() == original.report.as_dict()

    def test_healthy_checkpoints_stay_loadable(self, tmp_path):
        # Backward compatibility: checkpoints written without a fault layer
        # restore into fault-configured trainers (and vice versa) without
        # touching what is absent.
        healthy = make_trainer(stop_after=1, epochs=3)
        healthy.train()
        path = save_checkpoint(healthy, tmp_path / "healthy.npz")
        faulty = make_trainer(**self.KW)
        load_checkpoint(faulty, path)
        assert faulty.fault_injector.membership.all_alive


class TestIntermittentDropoutBridge:
    CONFIG = dict(compute_model={"name": "intermittent_dropout",
                                 "compute_s": 0.01, "drop_prob": 0.5,
                                 "downtime_s": 0.2}, clock_seed=3)

    def test_dropped_ranks_become_absent(self):
        trainer = make_trainer(**self.CONFIG)
        # No fault model configured, yet the bridge forces an injector so
        # compute-model dropouts can flip membership.
        assert trainer.fault_injector is not None
        assert trainer.fault_injector.bridge_compute_stalls
        assert trainer.fault_injector.model is None
        metrics = trainer.train()
        assert math.isfinite(metrics.train_loss[-1])
        report = trainer.fault_injector.report
        # drop_prob=0.5 over 4 ranks × 8 iterations: absences are certain.
        assert sum(report.down_transitions_per_rank) > 0
        assert report.lost_steps > 0
        assert sum(report.rejoins_per_rank) > 0

    def test_slow_node_keeps_timing_only_semantics(self):
        # The legacy reading lives on as the slow_node fault model: stalls
        # price simulated time but numerics match the healthy run exactly.
        stalled = make_trainer(faults={"model": "slow_node",
                                       "model_kwargs": {"drop_prob": 0.5,
                                                        "downtime_s": 0.2}},
                               fault_seed=4)
        healthy = make_trainer(compute_model={"name": "constant"})
        stalled.train()
        healthy.train()
        assert stalled.fault_injector.membership.all_alive
        np.testing.assert_array_equal(final_params(stalled),
                                      final_params(healthy))
        assert stalled.simulated_time_s > healthy.simulated_time_s


class TestMetricsCSVFaultColumns:
    def test_csv_has_fault_columns_and_cumulative_rows(self, tmp_path):
        trainer = make_trainer(faults=FAULTS["message_loss"], fault_seed=2,
                               **STRATEGIES["async_ps"])
        trainer.train()
        path = trainer.metrics.to_csv(tmp_path / "metrics.csv")
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "rejected_pushes" in header and "mean_staleness" in header
        assert len(lines) - 1 == len(trainer.metrics.epochs)
        rejected_col = header.index("rejected_pushes")
        staleness_col = header.index("mean_staleness")
        rejected = [int(line.split(",")[rejected_col]) for line in lines[1:]]
        staleness = [float(line.split(",")[staleness_col]) for line in lines[1:]]
        # Columns are cumulative: non-decreasing, final row = run totals.
        assert rejected == sorted(rejected)
        assert rejected[-1] == trainer.sim_report.rejected_pushes
        assert staleness[-1] == pytest.approx(
            trainer.sim_report.mean_staleness())

    def test_lockstep_runs_report_zero_fault_columns(self, tmp_path):
        trainer = make_trainer()
        trainer.train()
        path = trainer.metrics.to_csv(tmp_path / "metrics.csv")
        lines = path.read_text().strip().splitlines()
        rejected_col = lines[0].split(",").index("rejected_pushes")
        assert all(row.split(",")[rejected_col] == "0" for row in lines[1:])

    def test_fault_report_rides_in_sim_report_dict(self):
        trainer = make_trainer(faults=FAULTS["crash"], fault_seed=0)
        trainer.train()
        payload = trainer.sim_report.as_dict()
        fault = payload["fault"]
        assert fault["model"] == "crash_stop"
        assert fault["total_downtime_s"] > 0.0
        assert fault["down_transitions_per_rank"][3] == 1
