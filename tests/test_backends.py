"""Execution backends: registry, validation, bit-identity, lifecycle.

The headline guarantee: ``backend="multiprocessing"`` is **bit-identical** to
``backend="inprocess"`` — final parameters, per-epoch losses and metrics —
because the workers run the same executors on the same shared storage with
the same centrally-derived seeds.  Everything else (registry exposure,
pinned incompatibility messages, dead-worker reporting, segment reaping) is
the supporting contract.
"""

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

from repro import nn
from repro.backends import (
    EXECUTION_BACKENDS,
    InProcessBackend,
    MultiprocessingBackend,
    WorkerDiedError,
    leaked_segments,
)
from repro.core.features import RunFeatures
from repro.core.spec import ExperimentSpec, SpecError
from repro.core.trainer import DistributedTrainer, TrainerConfig
from repro.models.registry import MODELS
from repro.registry import public_registries
from repro.utils.rng import replica_init_seed


def train_params_and_metrics(backend, *, model="fnn3", world_size=2,
                             iterations=3, **backend_kwargs):
    config = TrainerConfig(model=model, preset="tiny", algorithm="a2sgd",
                           world_size=world_size, epochs=1, seed=0,
                           max_iterations_per_epoch=iterations,
                           backend=backend, backend_kwargs=backend_kwargs)
    trainer = DistributedTrainer(config)
    try:
        metrics = trainer.train()
        params = trainer.flat_world.param_matrix.copy()
    finally:
        trainer.close()
    return params, metrics.as_dict(), metrics.final_metric


# --------------------------------------------------------------------------- #
# registry (the 12th component registry)
# --------------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert EXECUTION_BACKENDS.list() == ["inprocess", "multiprocessing"]
        assert isinstance(EXECUTION_BACKENDS.create("inprocess"), InProcessBackend)
        backend = EXECUTION_BACKENDS.create("multiprocessing", num_workers=2)
        assert isinstance(backend, MultiprocessingBackend)
        backend.close()

    def test_exposed_as_public_registry(self):
        assert "backends" in public_registries()

    def test_did_you_mean_on_typo(self):
        problems = RunFeatures.of(TrainerConfig(backend="multiprocesing")).problems()
        assert len(problems) == 1
        assert "did you mean" in problems[0]
        assert "multiprocessing" in problems[0]

    def test_components_cli_lists_backends(self, capsys):
        from repro.cli import main
        assert main(["components", "--registry", "backends"]) == 0
        out = capsys.readouterr().out
        assert "inprocess" in out and "multiprocessing" in out


# --------------------------------------------------------------------------- #
# spec validation: pinned incompatibility messages
# --------------------------------------------------------------------------- #
class TestBackendValidation:
    def test_async_strategy_rejected_with_pinned_text(self):
        spec = ExperimentSpec(backend="multiprocessing",
                              sync={"strategy": "async_ps"})
        with pytest.raises(SpecError) as excinfo:
            spec.validate()
        assert ("backend 'multiprocessing' cannot run sync strategy "
                "'async_ps': the event-driven virtual clock executes one rank "
                "at a time; use backend 'inprocess'") in excinfo.value.problems

    def test_faults_rejected_with_pinned_text(self):
        spec = ExperimentSpec(backend="multiprocessing", faults="crash_stop")
        with pytest.raises(SpecError) as excinfo:
            spec.validate()
        assert ('backend \'multiprocessing\' does not support fault injection; '
                'remove the "faults" section or use backend \'inprocess\''
                ) in excinfo.value.problems

    def test_language_model_rejected(self):
        spec = ExperimentSpec(backend="multiprocessing", model="lstm_ptb")
        with pytest.raises(SpecError, match="does not support language models"):
            spec.validate()

    def test_num_workers_cannot_exceed_world_size(self):
        spec = ExperimentSpec(backend="multiprocessing", world_size=4,
                              backend_kwargs={"num_workers": 8})
        with pytest.raises(SpecError,
                           match=r"num_workers \(8\) cannot exceed world_size \(4\)"):
            spec.validate()

    def test_bad_kwargs_fail_constructibility(self):
        spec = ExperimentSpec(backend="multiprocessing",
                              backend_kwargs={"num_workers": 0})
        with pytest.raises(SpecError, match="cannot be constructed with"):
            spec.validate()

    def test_trainer_bind_time_raises_same_text(self):
        config = TrainerConfig(model="fnn3", world_size=2,
                               backend="multiprocessing",
                               sync={"strategy": "async_ps"})
        with pytest.raises(ValueError, match="cannot run sync strategy 'async_ps'"):
            DistributedTrainer(config)

    def test_valid_spec_passes_and_roundtrips(self, tmp_path):
        spec = ExperimentSpec(backend="multiprocessing", world_size=2,
                              backend_kwargs={"num_workers": 2}).validate()
        path = spec.to_file(tmp_path / "spec.json")
        again = ExperimentSpec.from_file(path)
        assert again.backend == "multiprocessing"
        assert again.backend_kwargs == {"num_workers": 2}
        assert again.to_trainer_config().backend == "multiprocessing"

    def test_backend_kwargs_deep_copied_into_trainer_config(self):
        spec = ExperimentSpec(backend="multiprocessing",
                              backend_kwargs={"num_workers": 2})
        config = spec.to_trainer_config()
        config.backend_kwargs["num_workers"] = 99
        assert spec.backend_kwargs == {"num_workers": 2}

    def test_inprocess_accepts_everything(self):
        ExperimentSpec(backend="inprocess", sync={"strategy": "async_ps"}).validate()
        ExperimentSpec(backend="inprocess", faults="crash_stop").validate()


# --------------------------------------------------------------------------- #
# seed derivation
# --------------------------------------------------------------------------- #
class TestSeedDerivation:
    def test_replica_init_seed_is_rank_independent(self):
        # Algorithm 1 line 1: identical initialization on every rank.
        assert replica_init_seed(7, 0) == replica_init_seed(7, 3) == 7

    def test_distinct_experiments_get_distinct_seeds(self):
        assert replica_init_seed(1, 0) != replica_init_seed(2, 0)


# --------------------------------------------------------------------------- #
# bit-identity: the acceptance criterion
# --------------------------------------------------------------------------- #
class TestBitIdentity:
    @pytest.mark.parametrize("model", ["fnn3", "resnet20"])
    @pytest.mark.parametrize("world_size", [2, 4])
    def test_taped_run_bit_identical(self, model, world_size):
        p_in, m_in, f_in = train_params_and_metrics(
            "inprocess", model=model, world_size=world_size)
        p_mp, m_mp, f_mp = train_params_and_metrics(
            "multiprocessing", model=model, world_size=world_size, num_workers=2)
        assert np.array_equal(p_in, p_mp)
        assert m_in == m_mp
        assert f_in == f_mp

    def test_one_worker_per_rank_bit_identical(self):
        p_in, _, _ = train_params_and_metrics("inprocess", world_size=3)
        p_mp, _, _ = train_params_and_metrics("multiprocessing", world_size=3)
        assert np.array_equal(p_in, p_mp)

    def test_uneven_shards_bit_identical(self):
        # 3 ranks over 2 workers: shards of 2 and 1.
        p_in, _, _ = train_params_and_metrics("inprocess", world_size=3)
        p_mp, _, _ = train_params_and_metrics("multiprocessing", world_size=3,
                                              num_workers=2)
        assert np.array_equal(p_in, p_mp)

    def test_no_segments_leak_after_runs(self):
        assert leaked_segments() == []


# --------------------------------------------------------------------------- #
# worker lifecycle
# --------------------------------------------------------------------------- #
class TestWorkerLifecycle:
    def _spawned_trainer(self):
        config = TrainerConfig(model="fnn3", preset="tiny", world_size=2,
                               epochs=1, max_iterations_per_epoch=2, seed=0,
                               backend="multiprocessing",
                               backend_kwargs={"num_workers": 2})
        trainer = DistributedTrainer(config)
        batches = [next(iter(loader)) for loader in trainer.loaders]
        trainer._gradients(batches, None)    # spawns workers
        return trainer, batches

    def test_sigkilled_worker_raises_naming_the_rank(self):
        trainer, batches = self._spawned_trainer()
        try:
            process, ranks = trainer.backend._processes[1]
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=30.0)
            with pytest.raises(WorkerDiedError, match=r"worker 1 \(ranks 1\.\.1\)"):
                trainer._gradients(batches, None)
        finally:
            trainer.close()
        assert leaked_segments() == []

    def test_close_reaps_workers_and_segments(self):
        trainer, _ = self._spawned_trainer()
        processes = [p for p, _ in trainer.backend._processes]
        trainer.close()
        assert all(not p.is_alive() for p in processes)
        assert leaked_segments() == []

    def test_close_right_after_a_step_is_prompt_and_clean(self):
        # Every worker reads the shutdown command at the same release
        # generation, so none is left waiting on a sibling that already left.
        trainer, _ = self._spawned_trainer()
        processes = [p for p, _ in trainer.backend._processes]
        start = time.monotonic()
        trainer.close()
        assert time.monotonic() - start < 0.5
        assert [p.exitcode for p in processes] == [0, 0]

    def test_step_aborted_between_release_and_join(self):
        # The parent released a step but never joined it (an interrupted
        # call): the next call joins it first, and close() still exits clean.
        trainer, batches = self._spawned_trainer()
        processes = [p for p, _ in trainer.backend._processes]
        try:
            expected = trainer._gradients(batches, None)[0].copy()
            trainer.backend._barrier.wait()
            np.testing.assert_array_equal(trainer._gradients(batches, None)[0],
                                          expected)
            trainer.backend._barrier.wait()
        finally:
            trainer.close()
        assert [p.exitcode for p in processes] == [0, 0]

    def test_close_is_idempotent(self):
        trainer, _ = self._spawned_trainer()
        trainer.close()
        trainer.close()
        assert leaked_segments() == []

    def test_close_before_spawn_is_safe(self):
        config = TrainerConfig(model="fnn3", world_size=2,
                               backend="multiprocessing")
        trainer = DistributedTrainer(config)
        trainer.close()             # workers never spawned; arenas reclaimed
        assert leaked_segments() == []

    def test_failed_constructor_releases_the_arena(self, monkeypatch):
        # _setup_data() rejects the dataset *after* create_world() allocated
        # the shared-memory arena; the segment must be gone right away (not
        # at interpreter exit) and the constructor's error must survive a
        # close() that itself fails.
        config = TrainerConfig(model="fnn3", world_size=4, backend="multiprocessing",
                               num_train=8, batch_size=64, epochs=1)
        with pytest.raises(ValueError, match="dataset too small for the requested"):
            DistributedTrainer(config)
        assert leaked_segments() == []

        close = MultiprocessingBackend.close
        cleanup_errors = []

        def failing_close(self):
            held_arena = self.arena is not None   # validate()'s probe holds none
            close(self)
            if held_arena:
                cleanup_errors.append(RuntimeError("cleanup failed"))
                raise cleanup_errors[-1]

        monkeypatch.setattr(MultiprocessingBackend, "close", failing_close)
        with pytest.raises(ValueError, match="dataset too small for the requested"):
            DistributedTrainer(config)
        assert len(cleanup_errors) == 1
        assert leaked_segments() == []

    def test_model_without_an_executor_fails_before_any_worker(self, monkeypatch):
        # Workers build their executors after the fork; the parent runs the
        # same check first, so the constructor names the layer (instead of a
        # worker dying on a missing executor) and the arena is freed.
        for attr in ("_entries", "_index", "_descriptions"):
            monkeypatch.setattr(MODELS, attr, dict(getattr(MODELS, attr)))

        def dropout_mlp(seed):
            rng = np.random.default_rng(seed)
            return nn.Sequential(nn.Linear(64, 16, rng=rng), nn.Dropout(0.5),
                                 nn.Linear(16, 10, rng=rng))

        MODELS.register("dropout_mlp/tiny", dataclasses.replace(
            MODELS.get("fnn3/tiny"), name="dropout_mlp", builder=dropout_mlp,
            builder_kwargs={}))
        config = TrainerConfig(model="dropout_mlp", preset="tiny", world_size=2,
                               epochs=1, max_iterations_per_epoch=2,
                               backend="multiprocessing",
                               backend_kwargs={"num_workers": 2})
        with pytest.raises(ValueError, match="Dropout lack forward_batched"):
            DistributedTrainer(config)
        assert leaked_segments() == []

    def test_batch_shape_change_rejected(self):
        trainer, batches = self._spawned_trainer()
        try:
            bad = [(b[0][: max(1, len(b[0]) // 2)],
                    b[1][: max(1, len(b[1]) // 2)]) for b in batches]
            with pytest.raises(ValueError, match="batch shape changed"):
                trainer._gradients(bad, None)
        finally:
            trainer.close()


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestBackendCli:
    def test_run_with_multiprocessing_backend(self, capsys):
        from repro.cli import main
        code = main(["run", "--model", "fnn3", "--workers", "2",
                     "--epochs", "1", "--iterations", "2",
                     "--backend", "multiprocessing", "--backend-workers", "2"])
        assert code == 0
        assert "fnn3" in capsys.readouterr().out
        assert leaked_segments() == []

    def test_backend_flag_canonicalizes(self):
        from repro.cli import _spec_from_run_args, _build_parser
        args = _build_parser().parse_args(
            ["run", "--backend", "multiprocessing", "--backend-workers", "3"])
        spec = _spec_from_run_args(args)
        assert spec.backend == "multiprocessing"
        assert spec.backend_kwargs == {"num_workers": 3}

    def test_backend_switch_resets_spec_backend_kwargs(self, tmp_path):
        # --backend inprocess on a multiprocessing spec must drop the spec's
        # num_workers (written for the other backend), same policy as sync.
        from repro.cli import _build_parser, _spec_from_run_args
        path = ExperimentSpec(backend="multiprocessing", world_size=2,
                              backend_kwargs={"num_workers": 2}
                              ).to_file(tmp_path / "spec.json")
        args = _build_parser().parse_args(
            ["run", "--config", str(path), "--backend", "inprocess"])
        spec = _spec_from_run_args(args)
        assert spec.backend == "inprocess"
        assert spec.backend_kwargs == {}
        spec.validate()

    def test_example_spec_is_valid(self):
        spec = ExperimentSpec.from_file("examples/spec_multiprocessing.json")
        spec.validate()
        assert spec.backend == "multiprocessing"
