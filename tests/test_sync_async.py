"""Async strategies (async_ps, easgd): construction, validation, worker-step
semantics on a fake engine, end-to-end runs on the virtual clock, and the
PR's two acceptance pins (lockstep bit-identity under a constant compute
model; async_ps beating allreduce on simulated time-to-accuracy under a
straggler fabric)."""

import numpy as np
import pytest

from repro.analysis.sweeps import time_to_accuracy_sweep
from repro.comm.inprocess import InProcessWorld
from repro.compress.registry import COMPRESSORS
from repro.core.batched_replicas import BatchedLanguageModelExecutor
from repro.core.experiment import run_experiment
from repro.core.features import RunFeatures
from repro.core.flatten import flatten_parameters
from repro.core.spec import ExperimentSpec
from repro.core.trainer import DistributedTrainer, TrainerConfig
from repro.sync import SyncSpec
from repro.sync.async_strategies import (
    AsyncParameterServerStrategy,
    ElasticAveragingStrategy,
)
from repro.sync.base import SYNC_STRATEGIES
from repro.utils.rng import SeedSequenceFactory

from tests.reference_trainer import ReferenceTrainer


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #
class FakeEngine:
    """Minimal engine protocol: plain SGD on flat (P, n) buffers."""

    def __init__(self, world_size: int, n: int = 4):
        self.param_matrix = np.zeros((world_size, n), dtype=np.float32)
        self.grad_matrix = np.zeros((world_size, n), dtype=np.float32)
        self.num_parameters = n

    def flat_update(self, params, grads, lr, *, velocity=None, scratch=None):
        params -= np.float32(lr) * np.asarray(grads, dtype=np.float32)

    def apply_local_step(self, rank, lr):
        self.flat_update(self.param_matrix[rank:rank + 1],
                         self.grad_matrix[rank:rank + 1], lr)


def bound_strategy(world_size: int = 2, n: int = 4, **sync_fields):
    """A built-and-bound strategy plus its fake engine, via SyncSpec.build."""
    world = InProcessWorld(world_size)
    compressors = [COMPRESSORS.create("dense") for _ in range(world_size)]
    strategy = SyncSpec(**sync_fields).build(world, compressors, SeedSequenceFactory(0))
    engine = FakeEngine(world_size, n)
    return strategy, engine


def make_config(world_size: int = 2, **overrides) -> TrainerConfig:
    kwargs = dict(model="fnn3", preset="tiny", algorithm="dense",
                  world_size=world_size, epochs=1, max_iterations_per_epoch=3,
                  batch_size=8, num_train=128, num_test=32)
    kwargs.update(overrides)
    return TrainerConfig(**kwargs)


def sync_problems(spec: SyncSpec, **config) -> list:
    return spec.problems(RunFeatures.of(TrainerConfig(sync=spec, **config)))


def tiny_spec(**overrides) -> ExperimentSpec:
    kwargs = dict(model="fnn3", preset="tiny", algorithm="dense",
                  world_size=2, epochs=1, max_iterations_per_epoch=3,
                  batch_size=8, num_train=128, num_test=32, seed=0)
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


# --------------------------------------------------------------------- #
# registration & construction
# --------------------------------------------------------------------- #
class TestRegistration:
    def test_strategies_registered(self):
        names = SYNC_STRATEGIES.list()
        assert "async_ps" in names
        assert "easgd" in names

    def test_aliases(self):
        assert SYNC_STRATEGIES.canonical("downpour") == "async_ps"
        assert SYNC_STRATEGIES.canonical("parameter_server") == "async_ps"
        assert SYNC_STRATEGIES.canonical("elastic_averaging") == "easgd"

    def test_is_async_flag(self):
        assert AsyncParameterServerStrategy.is_async
        assert ElasticAveragingStrategy.is_async
        assert not getattr(SYNC_STRATEGIES.get("allreduce"), "is_async", False)

    def test_lockstep_exchange_is_refused(self):
        strategy, _ = bound_strategy(strategy="async_ps")
        with pytest.raises(RuntimeError, match="simulation engine"):
            strategy.exchange_batched(np.zeros((2, 4), dtype=np.float32))


class TestConstructorValidation:
    @pytest.mark.parametrize("bad", [-1, 1.5, True, "8"])
    def test_staleness_bound_must_be_nonnegative_int(self, bad):
        with pytest.raises(ValueError,
                           match="staleness_bound must be an integer >= 0"):
            AsyncParameterServerStrategy(staleness_bound=bad)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_staleness_penalty_range(self, bad):
        with pytest.raises(ValueError, match="staleness_penalty"):
            AsyncParameterServerStrategy(staleness_penalty=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, 2.0])
    def test_moving_rate_range(self, bad):
        with pytest.raises(ValueError, match="moving_rate"):
            ElasticAveragingStrategy(moving_rate=bad)


# --------------------------------------------------------------------- #
# spec-level validation
# --------------------------------------------------------------------- #
class TestSpecValidation:
    def test_bad_strategy_kwargs_surface_constructor_error(self):
        problems = sync_problems(SyncSpec(
            strategy="async_ps", strategy_kwargs={"staleness_bound": -1}))
        assert len(problems) == 1
        assert "cannot be constructed" in problems[0]
        assert "staleness_bound must be an integer >= 0" in problems[0]

    def test_async_rejects_robust_aggregator(self):
        problems = sync_problems(SyncSpec(strategy="async_ps",
                                          aggregator="trimmed_mean"))
        assert any("cannot run a robust aggregator" in p for p in problems)
        strategy_problems = sync_problems(SyncSpec(
            strategy="easgd", aggregator="geometric_median"))
        assert any("cannot run a robust aggregator" in p
                   for p in strategy_problems)

    def test_async_ps_rejects_allgather_compressor(self):
        problems = sync_problems(SyncSpec(strategy="async_ps"), algorithm="topk")
        assert any("allgather exchange" in p for p in problems)
        assert sync_problems(SyncSpec(strategy="async_ps"), algorithm="dense") == []
        assert sync_problems(SyncSpec(strategy="async_ps"), algorithm="a2sgd") == []

    def test_bind_enforces_the_same_rules(self):
        world = InProcessWorld(2)
        dense = [COMPRESSORS.create("dense") for _ in range(2)]
        with pytest.raises(ValueError, match="use the 'mean' aggregator"):
            SyncSpec(strategy="easgd", aggregator="coordinate_median").build(
                world, dense, SeedSequenceFactory(0))
        topk = [COMPRESSORS.create("topk", ratio=0.1) for _ in range(2)]
        with pytest.raises(ValueError, match="rank-locally"):
            SyncSpec(strategy="async_ps").build(InProcessWorld(2), topk, SeedSequenceFactory(0))

    def test_experiment_spec_validate_reports_invalid_staleness(self):
        # The `repro validate` contract exercised by the CI smoke job.
        spec = tiny_spec(sync={"strategy": "async_ps",
                               "strategy_kwargs": {"staleness_bound": -1}})
        with pytest.raises(ValueError,
                           match="staleness_bound must be an integer >= 0"):
            spec.validate()


# --------------------------------------------------------------------- #
# async_ps worker-step semantics (fake engine, exact arithmetic)
# --------------------------------------------------------------------- #
class TestAsyncParameterServer:
    def test_push_pull_updates_server_and_tracks_staleness(self):
        strategy, engine = bound_strategy(strategy="async_ps")
        strategy.async_setup(engine)
        engine.grad_matrix[0, :] = 1.0
        report = strategy.worker_step(0, lr=0.1)
        assert report.staleness == 0 and not report.rejected
        np.testing.assert_array_equal(strategy.server_params,
                                      np.full(4, -0.1, dtype=np.float32))
        np.testing.assert_array_equal(engine.param_matrix[0],
                                      strategy.server_params)
        assert strategy.version == 1

        # Rank 1 pulled at version 0, pushes at version 1 -> staleness 1.
        engine.grad_matrix[1, :] = 2.0
        report = strategy.worker_step(1, lr=0.1)
        assert report.staleness == 1 and not report.rejected
        np.testing.assert_allclose(strategy.server_params,
                                   np.full(4, -0.3, dtype=np.float32))
        assert strategy.staleness_histogram == {0: 1, 1: 1}
        assert strategy.rejected_pushes == 0

    def test_stale_push_is_rejected_but_worker_still_pulls(self):
        strategy, engine = bound_strategy(
            strategy="async_ps", strategy_kwargs={"staleness_bound": 0})
        strategy.async_setup(engine)
        engine.grad_matrix[0, :] = 1.0
        strategy.worker_step(0, lr=0.1)
        before = strategy.server_params.copy()

        engine.grad_matrix[1, :] = 5.0
        report = strategy.worker_step(1, lr=0.1)
        assert report.rejected and report.staleness == 1
        np.testing.assert_array_equal(strategy.server_params, before)
        assert strategy.version == 1                 # rejected push absorbs nothing
        np.testing.assert_array_equal(engine.param_matrix[1], before)
        assert strategy.rejected_pushes == 1
        # The worker re-pulled, so its next push is fresh again.
        engine.grad_matrix[1, :] = 1.0
        assert strategy.worker_step(1, lr=0.1).staleness == 0

    def test_staleness_penalty_scales_the_update(self):
        strategy, engine = bound_strategy(
            strategy="async_ps", strategy_kwargs={"staleness_penalty": 0.5})
        strategy.async_setup(engine)
        engine.grad_matrix[0, :] = 1.0
        strategy.worker_step(0, lr=0.1)              # server = -0.1
        engine.grad_matrix[1, :] = 2.0
        strategy.worker_step(1, lr=0.1)              # staleness 1: g * 0.5
        np.testing.assert_allclose(strategy.server_params,
                                   np.full(4, -0.2, dtype=np.float32))

    def test_consensus_and_finalize_use_the_server(self):
        strategy, engine = bound_strategy(strategy="async_ps")
        assert strategy.consensus_vector() is None   # before setup
        strategy.async_setup(engine)
        engine.grad_matrix[0, :] = 1.0
        strategy.worker_step(0, lr=0.1)
        np.testing.assert_array_equal(strategy.consensus_vector(),
                                      strategy.server_params)
        finalized = strategy.finalize([np.zeros(4, dtype=np.float32)] * 2)
        for vector in finalized:
            np.testing.assert_array_equal(vector, strategy.server_params)

    def test_non_finite_a2sgd_push_is_refused(self):
        world = InProcessWorld(2)
        strategy = SyncSpec(strategy="async_ps").build(
            world, [COMPRESSORS.create("a2sgd") for _ in range(2)],
            SeedSequenceFactory(0))
        engine = FakeEngine(2)
        strategy.async_setup(engine)
        engine.grad_matrix[1, :] = [0.5, -0.25, np.nan, 0.1]
        with pytest.raises(FloatingPointError, match="non-finite gradient means"):
            strategy.worker_step(1, lr=0.1)

    def test_comm_is_priced_and_wire_bits_counted(self):
        strategy, engine = bound_strategy(strategy="async_ps", )
        strategy.async_setup(engine)
        n = engine.num_parameters
        report = strategy.worker_step(0, lr=0.1)
        assert report.comm_time_s > 0.0
        assert report.wire_bits == strategy.compressors[0].wire_bits(n) + 32.0 * n
        assert strategy.wire_bits_per_iteration(n, 2) == \
            strategy.compressors[0].wire_bits(n) + 32.0 * n

    def test_state_arrays_round_trip(self):
        strategy, engine = bound_strategy(strategy="async_ps")
        strategy.async_setup(engine)
        for rank, scale in ((0, 1.0), (1, 2.0), (0, 3.0)):
            engine.grad_matrix[rank, :] = scale
            strategy.worker_step(rank, lr=0.1)
        arrays = strategy.state_arrays()

        clone, clone_engine = bound_strategy(strategy="async_ps")
        clone.load_state_arrays(arrays)
        clone.async_setup(clone_engine)              # must not clobber state
        np.testing.assert_array_equal(clone.server_params, strategy.server_params)
        np.testing.assert_array_equal(clone.server_velocity,
                                      strategy.server_velocity)
        np.testing.assert_array_equal(clone.pull_versions, strategy.pull_versions)
        assert clone.version == strategy.version
        assert clone.staleness_histogram == strategy.staleness_histogram
        assert clone.rejected_pushes == strategy.rejected_pushes


# --------------------------------------------------------------------- #
# easgd worker-step semantics
# --------------------------------------------------------------------- #
class TestElasticAveraging:
    def test_local_steps_between_elastic_exchanges(self):
        strategy, engine = bound_strategy(strategy="easgd", period=2)
        strategy.async_setup(engine)
        engine.grad_matrix[0, :] = 1.0
        report = strategy.worker_step(0, lr=0.1)
        assert report.exchange == "local"
        assert report.comm_time_s == 0.0 and report.wire_bits == 0.0
        np.testing.assert_allclose(engine.param_matrix[0],
                                   np.full(4, -0.1, dtype=np.float32))
        np.testing.assert_array_equal(strategy.center,
                                      np.zeros(4, dtype=np.float32))

    def test_elastic_exchange_moves_worker_and_center_symmetrically(self):
        strategy, engine = bound_strategy(strategy="easgd", period=2,
                                          strategy_kwargs={"moving_rate": 0.5})
        engine.param_matrix[1, :] = 4.0
        strategy.async_setup(engine)                 # center = rank 0 row = 0
        engine.grad_matrix[1, :] = 0.0               # isolate the elastic move
        strategy.worker_step(1, lr=0.1)              # local (no-op: zero grad)
        report = strategy.worker_step(1, lr=0.1)     # elastic
        assert report.exchange == "elastic"
        assert report.comm_time_s > 0.0
        assert report.wire_bits == 64.0 * engine.num_parameters
        # x <- x - rho (x - c) = 4 - 0.5 * 4 = 2 ; c <- c + rho (x - c) = 2
        np.testing.assert_allclose(engine.param_matrix[1],
                                   np.full(4, 2.0, dtype=np.float32))
        np.testing.assert_allclose(strategy.center,
                                   np.full(4, 2.0, dtype=np.float32))

    def test_consensus_and_finalize_use_the_center(self):
        strategy, engine = bound_strategy(strategy="easgd", period=1)
        strategy.async_setup(engine)
        assert strategy.consensus_vector() is strategy.center
        finalized = strategy.finalize([np.ones(4, dtype=np.float32)] * 2)
        for vector in finalized:
            np.testing.assert_array_equal(vector, strategy.center)

    def test_wire_bits_amortized_over_period(self):
        strategy, _ = bound_strategy(strategy="easgd", period=4)
        assert strategy.wire_bits_per_iteration(100, 2) == 64.0 * 100 / 4

    def test_state_arrays_round_trip(self):
        strategy, engine = bound_strategy(strategy="easgd", period=2)
        strategy.async_setup(engine)
        engine.grad_matrix[:, :] = 1.0
        for rank in (0, 0, 1):
            strategy.worker_step(rank, lr=0.1)
        arrays = strategy.state_arrays()
        clone, clone_engine = bound_strategy(strategy="easgd", period=2)
        clone.load_state_arrays(arrays)
        clone.async_setup(clone_engine)
        np.testing.assert_array_equal(clone.center, strategy.center)
        np.testing.assert_array_equal(clone.local_steps, strategy.local_steps)


# --------------------------------------------------------------------- #
# end-to-end on the virtual clock
# --------------------------------------------------------------------- #
class TestEndToEnd:
    def test_async_ps_trains_and_reports(self):
        result = run_experiment(tiny_spec(
            sync={"strategy": "async_ps"},
            compute_model={"name": "lognormal", "sigma": 0.3}, clock_seed=3))
        sim = result.sim
        assert sim is not None and sim["strategy"] == "async_ps"
        assert sim["simulated_time_s"] > 0.0
        assert sim["total_steps"] == 2 * 3          # world_size x iterations
        histogram = {int(k): v for k, v in sim["staleness_histogram"].items()}
        assert sum(histogram.values()) == sim["total_steps"]
        assert np.isfinite(result.final_metric)
        assert len(result.metrics.simulated_time_s) == 1
        assert result.metrics.simulated_time_s[0] == pytest.approx(
            sim["simulated_time_s"])

    def test_easgd_fast_ranks_contribute_more_steps(self):
        result = run_experiment(tiny_spec(
            epochs=2, max_iterations_per_epoch=4,
            sync={"strategy": "easgd", "period": 2},
            compute_model={"name": "straggler", "slowdown": 8.0, "sigma": 0.0},
            clock_seed=0))
        sim = result.sim
        assert sim["strategy"] == "easgd"
        # Rank 1 runs 8x slower; the update budget flows to rank 0.
        assert sim["steps_per_rank"][0] > sim["steps_per_rank"][1]
        assert sum(sim["steps_per_rank"]) == 2 * 2 * 4
        assert np.isfinite(result.final_metric)

    def test_sync_run_without_compute_model_runs_on_the_constant_clock(self):
        result = run_experiment(tiny_spec())
        sim = result.sim
        assert sim["strategy"] == "lockstep"
        assert sim["compute_model"]["name"] == "constant"
        assert result.metrics.simulated_time_s[-1] == sim["simulated_time_s"] > 0.0

    def test_lockstep_run_with_compute_model_is_priced(self):
        result = run_experiment(tiny_spec(compute_model="constant"))
        sim = result.sim
        assert sim is not None and sim["strategy"] == "lockstep"
        assert sim["simulated_time_s"] > 0.0
        assert not np.isnan(result.metrics.simulated_time_s[0])


# --------------------------------------------------------------------- #
# the engine's per-rank executors
# --------------------------------------------------------------------- #
LM = dict(model="lstm_ptb", algorithm="a2sgd", num_train=2000, num_test=160,
          seq_len=8)


def engine_and_lockstep(lockstep_cls=DistributedTrainer, **overrides):
    """An async_ps trainer and a lockstep trainer over one perturbed world:
    the same distinct parameter row per rank in both."""
    lockstep = lockstep_cls(make_config(**overrides))
    engine_trainer = DistributedTrainer(make_config(sync={"strategy": "async_ps"},
                                                    **overrides))
    noise = np.random.default_rng(5).standard_normal(
        lockstep.flat_world.param_matrix.shape).astype(np.float32) * 1e-2
    for trainer in (lockstep, engine_trainer):
        trainer.flat_world.param_matrix += noise
    return engine_trainer, lockstep


def carried_rows(trainer, states, rank):
    """Rank ``rank``'s carried BPTT state as ``(h, c)`` arrays per layer, from
    ``states`` in ``trainer.executor``'s format: one stacked state, or one
    P = 1 state per rank."""
    if isinstance(trainer.executor, BatchedLanguageModelExecutor):
        return [(h.data[rank], c.data[rank]) for h, c in states]
    return [(h.data[0], c.data[0]) for h, c in states[rank]]


def assert_events_match_lockstep(iterations: int, lockstep_cls=DistributedTrainer,
                                 **overrides):
    """Each engine event's gradient, loss and carried state for rank r equal
    row r of the lockstep trainer's stage-1 pass on the same batches, bit for
    bit, over ``iterations`` consecutive iterations (BPTT windows for an LM);
    so do the replicas' buffers afterwards.  The engine computes each
    window's gradients in one wave and hands them out one event at a time."""
    engine_trainer, lockstep = engine_and_lockstep(lockstep_cls, **overrides)
    engine = engine_trainer.simulator.schedule
    iterators = lockstep._epoch_iterators()
    batches = [lockstep._next_batches(iterators) for _ in range(iterations)]
    engine._iterators = [iter([window[rank] for window in batches])
                         for rank in range(len(batches[0]))]
    states = None
    for window in batches:
        G, _, states = lockstep._gradients(window, states)
        for rank in range(len(window)):
            loss = engine._compute_gradient(rank)
            assert loss == lockstep._last_losses[rank]
            assert np.array_equal(engine.sim.grad_matrix[rank], G[rank])
            if engine._lm_out is not None:
                # Stacked lockstep state, or the per-rank loop's own state.
                rows = [(h.data[rank], c.data[rank]) for h, c in states] \
                    if isinstance(lockstep.executor, BatchedLanguageModelExecutor) \
                    else [(h.data, c.data) for h, c in states[rank]]
                carried = carried_rows(engine_trainer, engine._lm_out, rank)
                for (h, c), (h_ref, c_ref) in zip(carried, rows):
                    assert np.array_equal(h, h_ref)
                    assert np.array_equal(c, c_ref)
    for mine, reference in zip(engine_trainer.replicas, lockstep.replicas):
        for (name, buffer), (_, expected) in zip(mine.named_buffers(),
                                                 reference.named_buffers()):
            assert np.array_equal(buffer, expected), name
    return engine_trainer, lockstep


class TestEventGradients:
    """An async engine event's gradient is its rank's row of one call of
    ``trainer.executor`` — the executor the lockstep path runs."""

    @pytest.mark.parametrize("model", ["fnn3", "resnet20"])
    def test_event_gradient_is_the_lockstep_row(self, model):
        engine_trainer, _ = assert_events_match_lockstep(
            iterations=2, model=model, world_size=4)
        if model == "resnet20":
            # The running stats compared equal above have really moved.
            fresh = dict(engine_trainer.spec.build(seed=0).named_buffers())
            assert all(not np.array_equal(buffer, fresh[name]) for name, buffer
                       in engine_trainer.replicas[0].named_buffers())

    def test_lm_event_carries_a_stacked_state_across_windows(self):
        engine_trainer, lockstep = assert_events_match_lockstep(
            iterations=2, world_size=4, batch_size=4, **LM)
        assert isinstance(lockstep.executor, BatchedLanguageModelExecutor)
        assert isinstance(engine_trainer.executor, BatchedLanguageModelExecutor)
        assert engine_trainer.simulator.schedule._lm_out is not None

    def test_lm_with_uneven_shards_runs_one_executor_per_rank(self):
        # 64 columns over 3 ranks: 22 / 21 / 21.  The trainer's executor runs
        # one P = 1 executor per rank, each replaying its own recorded window
        # shape, bit for bit with the per-replica loop of the reference
        # trainer.
        engine_trainer, lockstep = assert_events_match_lockstep(
            iterations=2, lockstep_cls=ReferenceTrainer, world_size=3,
            batch_size=None, **LM)
        assert [shard.batch_size for shard in engine_trainer.lm_shards] == [22, 21, 21]
        assert [executor.tape_stats["recorded"]
                for executor in engine_trainer.executor.executors] == [1, 1, 1]

    def test_lm_with_uneven_shards_trains(self):
        trainer = DistributedTrainer(make_config(
            world_size=3, batch_size=None, sync={"strategy": "async_ps"}, **LM))
        trainer.train()
        assert np.isfinite(trainer.metrics.train_loss[-1])
        assert sum(executor.tape_stats["replays"]
                   for executor in trainer.executor.executors) > 0


# --------------------------------------------------------------------- #
# acceptance pins
# --------------------------------------------------------------------- #
class TestAcceptance:
    def test_allreduce_under_constant_model_is_bit_identical(self):
        """The constant compute model only *prices* the lockstep run —
        every parameter of every replica stays exactly equal — and it is
        what a spec without a compute model runs on."""
        def train(config):
            trainer = DistributedTrainer(config)
            trainer.train()
            params = np.stack([flatten_parameters(m) for m in trainer.replicas])
            return trainer, params

        baseline_trainer, baseline = train(make_config(world_size=2))
        priced_trainer, priced = train(make_config(
            world_size=2, compute_model="constant", clock_seed=0))
        assert np.array_equal(baseline, priced)
        assert baseline_trainer.sim_report.as_dict() == \
            priced_trainer.sim_report.as_dict()
        assert priced_trainer.simulated_time_s > 0.0

    def test_async_ps_beats_allreduce_on_time_to_accuracy(self):
        """Under a straggler fabric the async parameter server reaches the
        lockstep run's final accuracy in measurably less simulated time."""
        results = time_to_accuracy_sweep(
            model="fnn3", algorithm="dense", world_size=4, epochs=2,
            max_iterations_per_epoch=8, clock_seed=0,
            compute_model={"name": "straggler", "slowdown": 8.0, "sigma": 0.3},
            sync_setups={"allreduce": {"strategy": "allreduce"},
                         "async_ps": {"strategy": "async_ps"}})
        allreduce = results["allreduce"]
        async_ps = results["async_ps"]
        assert np.isfinite(allreduce["time_to_target"])
        assert np.isfinite(async_ps["time_to_target"])
        assert async_ps["time_to_target"] < allreduce["time_to_target"]
        assert async_ps["total_simulated_s"] < allreduce["total_simulated_s"]
