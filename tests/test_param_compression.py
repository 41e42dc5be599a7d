"""Compressed parameter exchange for the decentralized strategies, plus the
sync-subsystem bugfix sweep: wire-payload corruption, step-phase validation
ordering, max-degree wire accounting, and mid-period checkpoint resume."""

import contextlib
import copy
import json

import numpy as np
import pytest

from repro.comm.inprocess import InProcessWorld
from repro.comm.topology import get_topology
from repro.compress.param_delta import ParameterDeltaCodec
from repro.compress.registry import get_compressor
from repro.core.callbacks import Callback
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.cost_model import CostModel
from repro.core.features import RunFeatures
from repro.core.flatten import flatten_parameters
from repro.core.timeline import SyncReport
from repro.core.trainer import DistributedTrainer, TrainerConfig
from repro.sync import SyncSpec, get_aggregator
from repro.sync.strategies import AllreduceStrategy, GossipStrategy, LocalSGDStrategy

from tests.reference_trainer import ReferenceTrainer


def sync_problems(spec: SyncSpec, **config) -> list:
    return spec.problems(RunFeatures.of(TrainerConfig(sync=spec, **config)))


def make_config(model: str, world_size: int, *, algorithm: str = "dense",
                sync=None, epochs: int = 1, iterations: int = 3) -> TrainerConfig:
    return TrainerConfig(model=model, preset="tiny", algorithm=algorithm,
                         world_size=world_size, epochs=epochs,
                         max_iterations_per_epoch=iterations, batch_size=8,
                         num_train=256, num_test=32,
                         sync=sync)


def final_params(trainer: DistributedTrainer) -> np.ndarray:
    return np.stack([flatten_parameters(m) for m in trainer.replicas])


def train_params(config: TrainerConfig, legacy_cls=None,
                 trainer_cls=DistributedTrainer) -> np.ndarray:
    trainer = trainer_cls(config)
    if legacy_cls is not None:
        spec = trainer.sync_spec
        topology = get_topology(spec.topology) if legacy_cls.needs_topology else None
        trainer.sync_strategy = legacy_cls().bind(
            trainer.world, trainer.compressors, get_aggregator(spec.aggregator),
            topology=topology, period=spec.period)
    trainer.train()
    return final_params(trainer)


class ReportRecorder(Callback):
    def __init__(self):
        self.reports = []

    def on_iteration_end(self, state) -> None:
        self.reports.append(state.report)


# --------------------------------------------------------------------- #
# Pre-compression reference strategies, copied verbatim from commit
# ecc909d (sync/strategies.py) for the paths the configs below exercise
# (H > 1 local SGD, gossip; no corruption).  They are the executable
# specification that `parameter_compression: "none"` must reproduce bit
# for bit.
# --------------------------------------------------------------------- #
class LegacyGossipReference(GossipStrategy):
    def exchange_batched(self, G):
        self._step += 1
        return G, self._passthrough_report()

    def post_step(self, param_rows):
        world, topology = self.world, self.topology
        nbytes = float(np.asarray(param_rows[0]).nbytes)
        comm_before = world.simulated_comm_time
        gathered = world.neighbor_exchange(list(param_rows), topology)
        comm_time = world.simulated_comm_time - comm_before
        for rank, neighborhood in enumerate(gathered):
            param_rows[rank][...] = self.aggregator.combine(np.stack(neighborhood))
        mean_degree = topology.mean_degree(world.world_size)
        return SyncReport(compression_time_s=0.0, comm_time_s=float(comm_time),
                          wire_bits_per_worker=mean_degree * 8.0 * nbytes,
                          exchange="neighbor_exchange")


class LegacyLocalSGDReference(LocalSGDStrategy):
    def exchange_batched(self, G):
        assert self.period > 1
        self._step += 1
        return G, self._passthrough_report()

    def post_step(self, param_rows):
        if self.period == 1 or self._step % self.period != 0:
            return None
        vectors = list(param_rows)
        results, report = self._aggregate_global(vectors)
        for row, result in zip(param_rows, results):
            row[...] = result
        return report


class TestParameterPhaseIsPriced:
    @pytest.mark.parametrize("sync", [
        {"strategy": "local_sgd", "period": 2, "parameter_compression": "topk"},
        {"strategy": "gossip", "topology": "ring", "parameter_compression": "topk"},
    ], ids=["local_sgd", "gossip"])
    def test_codec_paths_price_the_codec_algorithm(self, sync):
        """The codec's compressor, not the gradient one, prices the phase."""
        recorder = ReportRecorder()
        trainer = DistributedTrainer(make_config("fnn3", 4, sync=sync, iterations=4),
                                     callbacks=[recorder])
        trainer.train()
        price = CostModel().compression.compression_time("topk", trainer.num_parameters)
        exchanged = [r for r in recorder.reports if r.exchange != "local"]
        assert exchanged
        assert all(r.compression_time_s == price for r in exchanged)


GOSSIP_NONE = {"strategy": "gossip", "topology": "ring",
               "parameter_compression": "none"}
LOCAL_SGD_NONE = {"strategy": "local_sgd", "period": 2,
                  "parameter_compression": "none"}


class TestNoneIsBitIdenticalToPreCompressionBehaviour:
    """Acceptance: parameter_compression="none" reproduces the
    pre-compression strategies bit for bit, P in {2, 4, 8}."""

    @pytest.mark.parametrize("world_size", [2, 4, 8])
    def test_gossip(self, world_size):
        config = make_config("fnn3", world_size, sync=GOSSIP_NONE)
        np.testing.assert_array_equal(
            train_params(config),
            train_params(config, legacy_cls=LegacyGossipReference))

    @pytest.mark.parametrize("world_size", [2, 4, 8])
    def test_local_sgd(self, world_size):
        config = make_config("fnn3", world_size, sync=LOCAL_SGD_NONE,
                             iterations=4)
        np.testing.assert_array_equal(
            train_params(config),
            train_params(config, legacy_cls=LegacyLocalSGDReference))

    def test_omitting_the_field_equals_explicit_none(self):
        explicit = make_config("fnn3", 4, sync=GOSSIP_NONE)
        omitted = make_config("fnn3", 4,
                              sync={"strategy": "gossip", "topology": "ring"})
        np.testing.assert_array_equal(train_params(explicit), train_params(omitted))


# --------------------------------------------------------------------- #
# The delta codec itself
# --------------------------------------------------------------------- #
class TestParameterDeltaCodec:
    def make_rows(self, P=3, n=40, seed=0):
        return np.random.default_rng(seed).standard_normal((P, n)).astype(np.float32)

    def test_first_exchange_is_a_dense_bootstrap(self):
        """The first sync has no references to delta against: it ships the
        dense parameters (priced 32n) and its estimates are exact, for any
        compressor — the snapshot a joining worker would receive."""
        codec = ParameterDeltaCodec([get_compressor("topk", ratio=0.01)
                                     for _ in range(3)])
        rows = self.make_rows()
        payloads, estimates, bits = codec.encode(rows)
        assert not codec.bootstrapped
        assert bits == 32.0 * rows.shape[1]
        np.testing.assert_array_equal(estimates, rows)
        np.testing.assert_array_equal(np.stack(payloads), rows)
        codec.advance(estimates)
        assert codec.bootstrapped
        # From the second exchange on, payloads are compressed deltas.
        _p, _e, bits = codec.encode(rows)
        assert bits == codec.wire_bits(rows.shape[1]) < 32.0 * rows.shape[1]

    def test_dense_delta_round_trip_is_exact(self):
        codec = ParameterDeltaCodec([get_compressor("dense") for _ in range(3)])
        rows = self.make_rows()
        _payloads, estimates, _bits = codec.encode(rows)
        codec.advance(estimates)
        shifted = rows + np.float32(0.25)
        _payloads, estimates, _bits = codec.encode(shifted)
        np.testing.assert_allclose(estimates, shifted, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("algorithm,kwargs", [
        ("topk", {"ratio": 0.25}),
        ("a2sgd", {}),
        # Error feedback needs a contractive compressor; QSGD is contractive
        # only when levels >= sqrt(bucket_size) (see the codec docstring).
        ("qsgd", {"levels": 16, "bucket_size": 64}),
    ])
    def test_error_feedback_converges_under_sync_dynamics(self, algorithm, kwargs):
        """The recursion the strategies actually run: each sync snaps the
        parameters to the aggregated estimates, then local progress moves
        them.  Estimates must track the parameters with shrinking error —
        the untransmitted mass is fed back, not lost."""
        codec = ParameterDeltaCodec(
            [get_compressor(algorithm, **kwargs) for _ in range(2)])
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 64)).astype(np.float32)
        step = (rng.standard_normal((2, 64)) * 0.01).astype(np.float32)
        codec.advance(codec.encode(x)[1])               # dense bootstrap round
        errors = []
        for _ in range(40):
            _payloads, estimates, _bits = codec.encode(x)
            codec.advance(estimates)
            combined = estimates.mean(axis=0)
            x = np.stack([combined, combined]) + step
            errors.append(float(np.abs(estimates - x).max()))
        assert errors[-1] < 0.5 * errors[0]
        assert max(errors) <= 2.0 * errors[0]           # never amplifies

    def test_references_advance_only_on_advance(self):
        codec = ParameterDeltaCodec([get_compressor("topk", ratio=0.5)
                                     for _ in range(2)])
        rows = self.make_rows(P=2)
        codec.encode(rows)
        assert not codec.bootstrapped                   # encode alone: no advance
        _p, estimates, _bits = codec.encode(rows)
        codec.advance(estimates)
        np.testing.assert_array_equal(codec._references, estimates)

    def test_state_arrays_round_trip(self):
        make = lambda: ParameterDeltaCodec(
            [get_compressor("topk", ratio=0.25) for _ in range(2)])
        codec = make()
        rows = self.make_rows(P=2)
        for _ in range(3):
            _p, estimates, _bits = codec.encode(rows)
            codec.advance(estimates)
        fresh = make()
        fresh.load_state_arrays(codec.state_arrays())
        np.testing.assert_array_equal(fresh._references, codec._references)
        for a, b in zip(fresh.compressors, codec.compressors):
            np.testing.assert_array_equal(a._residual, b._residual)
        # Identical state produces identical next payloads/estimates.
        _pa, ea, _ba = codec.encode(rows)
        _pb, eb, _bb = fresh.encode(rows)
        np.testing.assert_array_equal(ea, eb)

    def test_reset_clears_references_and_residuals(self):
        codec = ParameterDeltaCodec([get_compressor("topk", ratio=0.25)
                                     for _ in range(2)])
        rows = self.make_rows(P=2)
        for _ in range(2):                              # bootstrap + one delta
            _p, estimates, _bits = codec.encode(rows)
            codec.advance(estimates)
        codec.reset()
        assert codec._references is None
        assert all(c._residual is None for c in codec.compressors)


# --------------------------------------------------------------------- #
# Compressed runs: traffic accounting + end-to-end training
# --------------------------------------------------------------------- #
GOSSIP_TOPK = {"strategy": "gossip", "topology": "ring",
               "parameter_compression": "topk",
               "parameter_compression_kwargs": {"ratio": 0.01}}
LOCAL_SGD_QSGD = {"strategy": "local_sgd", "period": 2,
                  "parameter_compression": "qsgd"}


def contraction_warning(sync):
    """Default qsgd (levels=4, bucket_size=512) is not contractive, and every
    trainer built on it must say so — asserted here rather than leaked into
    the run's warnings summary."""
    if sync.get("parameter_compression") == "qsgd":
        return pytest.warns(RuntimeWarning, match="not contractive")
    return contextlib.nullcontext()


class TestCompressedParameterExchange:
    def test_gossip_topk_reports_reduced_wire_bits(self):
        """Acceptance: the compressor's actual bits — not 32n — show up in
        wire_bits_per_iteration AND the per-iteration SyncReport."""
        trainer = DistributedTrainer(make_config("fnn3", 4, sync=GOSSIP_TOPK))
        recorder = ReportRecorder()
        trainer.callbacks.append(recorder)
        trainer.train()
        n = trainer.num_parameters
        k = max(1, int(round(0.01 * n)))
        assert trainer.wire_bits_per_iteration == 2 * 32.0 * k       # ring: degree 2
        assert trainer.wire_bits_per_iteration < 2 * 32.0 * n
        for report in recorder.reports:
            assert report.exchange == "local+compressed_neighbor_exchange"
        # First sync is the one-time dense reference bootstrap; every later
        # sync ships the compressor's actual bits.
        assert recorder.reports[0].wire_bits_per_worker == 2 * 32.0 * n
        for report in recorder.reports[1:]:
            assert report.wire_bits_per_worker == 2 * 32.0 * k
        assert trainer.world.stats.collective_counts["neighbor_exchange"] == 3

    def test_local_sgd_qsgd_reports_reduced_wire_bits(self):
        with contraction_warning(LOCAL_SGD_QSGD):
            trainer = DistributedTrainer(make_config("fnn3", 4,
                                                     sync=LOCAL_SGD_QSGD, iterations=4))
        recorder = ReportRecorder()
        trainer.callbacks.append(recorder)
        trainer.train()
        n = trainer.num_parameters
        qsgd_bits = 2.8 * n + 32.0
        assert trainer.wire_bits_per_iteration == qsgd_bits / 2
        exchanges = [r.exchange for r in recorder.reports]
        assert exchanges == ["local", "local+compressed_parameter_allgather"] * 2
        sync_reports = [r for r in recorder.reports if "compressed" in r.exchange]
        # Dense bootstrap on the first sync, compressed bits afterwards.
        assert sync_reports[0].wire_bits_per_worker == 32.0 * n
        assert sync_reports[1].wire_bits_per_worker == qsgd_bits
        assert all(r.comm_time_s > 0.0 for r in sync_reports)
        # Payload allgathers happen only on the 2 sync points (+1 finalize
        # allreduce at the end of training).
        assert trainer.world.stats.collective_counts["allgather"] == 2

    @pytest.mark.parametrize("sync", [GOSSIP_TOPK, LOCAL_SGD_QSGD],
                             ids=["gossip+topk", "local_sgd+qsgd"])
    def test_matches_the_per_rank_reference(self, sync):
        config = make_config("fnn3", 4, sync=sync, iterations=4)
        with contraction_warning(sync):
            batched = train_params(config)
        with contraction_warning(sync):
            reference = train_params(config, trainer_cls=ReferenceTrainer)
        np.testing.assert_allclose(batched, reference, rtol=2e-5, atol=2e-6)

    def test_dense_parameter_compression_stays_close_to_uncompressed(self):
        """The dense "compressor" transmits the full delta, so delta coding
        itself adds only float32 rounding."""
        dense = {"strategy": "gossip", "topology": "ring",
                 "parameter_compression": "dense"}
        a = train_params(make_config("fnn3", 4, sync=dense))
        b = train_params(make_config("fnn3", 4, sync=GOSSIP_NONE))
        np.testing.assert_allclose(a, b, rtol=2e-4, atol=2e-5)

    def test_gossip_gaussiank_ragged_payloads_run(self):
        """Gaussian-K selects a different k per rank — the neighbour exchange
        must accept ragged payloads."""
        sync = {"strategy": "gossip", "topology": "ring",
                "parameter_compression": "gaussiank",
                "parameter_compression_kwargs": {"ratio": 0.05}}
        trainer = DistributedTrainer(make_config("fnn3", 4, sync=sync,
                                                 iterations=2))
        trainer.train()
        assert trainer.world.stats.collective_counts["neighbor_exchange"] == 2

    def test_robust_aggregator_composes_with_compressed_parameters(self):
        sync = {**GOSSIP_TOPK, "aggregator": "coordinate_median"}
        trainer = DistributedTrainer(make_config("fnn3", 4, sync=sync,
                                                 iterations=2))
        trainer.train()
        P = final_params(trainer)
        assert np.all(np.isfinite(P))

    def test_compressed_gossip_converges_toward_consensus(self):
        """On a fully-connected graph with generous top-k, compressed gossip
        training stays close to the dense-gossip trajectory."""
        dense_sync = {"strategy": "gossip", "topology": "fully_connected"}
        topk_sync = {**dense_sync, "parameter_compression": "topk",
                     "parameter_compression_kwargs": {"ratio": 0.5}}
        a = train_params(make_config("fnn3", 4, sync=dense_sync, epochs=2))
        b = train_params(make_config("fnn3", 4, sync=topk_sync, epochs=2))
        assert float(np.abs(a - b).max()) < 0.05


# --------------------------------------------------------------------- #
# Bugfix: Byzantine corruption poisons the wire payload, not the local
# gradients, on parameter-phase strategies.
# --------------------------------------------------------------------- #
class TestParameterPhaseCorruption:
    def build(self, spec_kwargs, world_size=4):
        spec = SyncSpec(**spec_kwargs)
        world = InProcessWorld(world_size)
        compressors = [get_compressor("dense") for _ in range(world_size)]
        return spec.build(world, compressors)

    def test_gossip_leaves_local_gradients_clean(self):
        strategy = self.build({"strategy": "gossip", "topology": "ring",
                               "corrupt_ranks": [0]})
        G = np.ones((4, 8), dtype=np.float32)
        out, _report = strategy.exchange_batched(G)
        np.testing.assert_array_equal(out, np.ones((4, 8), dtype=np.float32))

    def test_gossip_sign_flip_reaches_neighbours_through_the_aggregator(self):
        """Regression: the Byzantine rank's flip arrives at its neighbours in
        the aggregated parameters — and its own row is poisoned only through
        the aggregation of its corrupted payload, not by a local flip."""
        strategy = self.build({"strategy": "gossip", "topology": "ring",
                               "corrupt_ranks": [0]})
        strategy.exchange_batched(np.zeros((4, 4), dtype=np.float32))
        rows = [np.full(4, float(p + 1), dtype=np.float32) for p in range(4)]
        strategy.post_step(rows)
        # Ring neighbourhoods (closed): rank1 = {0,1,2} with rank0 staging -1.
        np.testing.assert_allclose(rows[1], np.full(4, (-1 + 2 + 3) / 3))
        np.testing.assert_allclose(rows[3], np.full(4, (3 + 4 - 1) / 3))
        # The corrupt rank's own result also comes from the aggregator (its
        # staged payload included), NOT from overwriting its local state.
        np.testing.assert_allclose(rows[0], np.full(4, (4 - 1 + 2) / 3))

    def test_local_sgd_corruption_applies_only_at_sync_points(self):
        strategy = self.build({"strategy": "local_sgd", "period": 2,
                               "corrupt_ranks": [1]}, world_size=2)
        gradients = np.ones((2, 4), dtype=np.float32)
        out, _ = strategy.exchange_batched(gradients)
        np.testing.assert_array_equal(out[1], np.ones(4, dtype=np.float32))
        assert strategy.post_step(
            [np.ones(4, np.float32), np.ones(4, np.float32)]) is None
        strategy.exchange_batched(gradients)              # step 2: sync point
        rows = [np.full(4, 1.0, dtype=np.float32), np.full(4, 2.0, dtype=np.float32)]
        report = strategy.post_step(rows)
        assert report is not None
        # mean(1, -2): the flip reached the aggregation, both ranks adopt it.
        np.testing.assert_allclose(rows[0], np.full(4, -0.5))
        np.testing.assert_allclose(rows[1], np.full(4, -0.5))

    def test_corruption_applies_to_compressed_payloads_too(self):
        strategy = self.build({"strategy": "gossip", "topology": "fully_connected",
                               "parameter_compression": "dense",
                               "corrupt_ranks": [0]}, world_size=2)
        strategy.exchange_batched(np.zeros((2, 4), dtype=np.float32))
        rows = [np.full(4, 2.0, dtype=np.float32), np.full(4, 4.0, dtype=np.float32)]
        strategy.post_step(rows)
        # Estimates are (-2, 4); both closed neighbourhoods see both ranks.
        np.testing.assert_allclose(rows[0], np.full(4, 1.0))
        np.testing.assert_allclose(rows[1], np.full(4, 1.0))

    def test_trainer_matches_the_per_rank_reference_under_gossip_corruption(self):
        sync = {"strategy": "gossip", "topology": "ring", "corrupt_ranks": [1],
                "corruption": "scale", "corruption_scale": -3.0}
        config = make_config("fnn3", 4, sync=sync)
        np.testing.assert_allclose(
            train_params(config),
            train_params(config, trainer_cls=ReferenceTrainer),
            rtol=2e-5, atol=2e-6)


# --------------------------------------------------------------------- #
# Bugfix: a rejected exchange must not advance the step phase.
# --------------------------------------------------------------------- #
class TestStepPhaseValidationOrdering:
    def build(self, spec_kwargs, world_size=2):
        spec = SyncSpec(**spec_kwargs)
        world = InProcessWorld(world_size)
        compressors = [get_compressor("dense") for _ in range(world_size)]
        return spec.build(world, compressors)

    @pytest.mark.parametrize("spec_kwargs", [
        {"strategy": "allreduce"},
        {"strategy": "local_sgd", "period": 2},
        {"strategy": "gossip", "topology": "ring"},
    ], ids=["allreduce", "local_sgd", "gossip"])
    def test_rejected_calls_leave_step_unchanged(self, spec_kwargs):
        strategy = self.build(spec_kwargs)
        with pytest.raises(ValueError, match="gradient matrix"):
            strategy.exchange_batched(np.ones((3, 4), dtype=np.float32))
        assert strategy._step == 0
        with pytest.raises(ValueError, match="gradient matrix"):
            strategy.exchange_batched(np.ones(4, dtype=np.float32))
        assert strategy._step == 0
        strategy.exchange_batched(np.ones((2, 4), dtype=np.float32))
        assert strategy._step == 1

    def test_local_sgd_period_arithmetic_survives_a_rejected_call(self):
        """A failed call between syncs must not shift the sync schedule."""
        strategy = self.build({"strategy": "local_sgd", "period": 2})
        good = np.ones((2, 4), dtype=np.float32)
        strategy.exchange_batched(good)
        assert not strategy.post_step_pending()
        with pytest.raises(ValueError):
            strategy.exchange_batched(good[:1])
        assert not strategy.post_step_pending()
        strategy.exchange_batched(good)
        assert strategy.post_step_pending()               # step 2 = sync point


# --------------------------------------------------------------------- #
# Bugfix: gossip traffic accounting matches the max-degree pricing.
# --------------------------------------------------------------------- #
class TestGossipWireAccountingUsesMaxDegree:
    def test_star_hub_degree_prices_the_iteration(self):
        trainer = DistributedTrainer(make_config(
            "fnn3", 4, sync={"strategy": "gossip", "topology": "star"}))
        n = trainer.num_parameters
        # The α–β model charges the hub's P-1 sends, so the analytic traffic
        # must report the same critical path (mean degree would say 1.5).
        assert trainer.wire_bits_per_iteration == 3 * 32.0 * n

    def test_star_sync_report_matches_the_analytic_figure(self):
        trainer = DistributedTrainer(make_config(
            "fnn3", 4, sync={"strategy": "gossip", "topology": "star"},
            iterations=2))
        recorder = ReportRecorder()
        trainer.callbacks.append(recorder)
        trainer.train()
        n = trainer.num_parameters
        for report in recorder.reports:
            assert report.wire_bits_per_worker == 3 * 32.0 * n

    def test_ring_is_unchanged_because_mean_equals_max(self):
        trainer = DistributedTrainer(make_config(
            "fnn3", 4, sync={"strategy": "gossip", "topology": "ring"}))
        assert trainer.wire_bits_per_iteration == 2 * 32.0 * trainer.num_parameters


# --------------------------------------------------------------------- #
# Spec / CLI plumbing
# --------------------------------------------------------------------- #
class TestSyncSpecParameterCompression:
    def test_json_round_trip(self):
        spec = SyncSpec(strategy="gossip", topology="star",
                        parameter_compression="topk",
                        parameter_compression_kwargs={"ratio": 0.01})
        round_tripped = SyncSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert round_tripped == spec
        assert "param_compression=topk" in round_tripped.describe()

    def test_unknown_compressor_is_a_problem(self):
        problems = sync_problems(SyncSpec(strategy="gossip",
                                          parameter_compression="warp"))
        assert any("parameter_compression" in p and "warp" in p for p in problems)

    def test_gradient_phase_strategies_reject_parameter_compression(self):
        problems = sync_problems(SyncSpec(parameter_compression="topk"))
        assert any("never exchanges parameters" in p for p in problems)
        problems = sync_problems(SyncSpec(strategy="local_sgd", period=1,
                                          parameter_compression="topk"))
        assert any("never exchanges parameters" in p for p in problems)
        assert sync_problems(SyncSpec(strategy="local_sgd", period=4,
                                      parameter_compression="topk")) == []

    def test_bad_kwargs_are_a_problem(self):
        problems = sync_problems(SyncSpec(
            strategy="gossip", parameter_compression="topk",
            parameter_compression_kwargs={"ratio": 7.0}))
        assert any("cannot be constructed" in p for p in problems)

    def test_kwargs_without_a_compressor_are_a_problem(self):
        problems = sync_problems(SyncSpec(
            strategy="gossip", parameter_compression_kwargs={"ratio": 0.1}))
        assert any("parameter_compression_kwargs" in p for p in problems)

    def test_bind_rejects_parameter_compressors_on_allreduce(self):
        world = InProcessWorld(2)
        compressors = [get_compressor("dense") for _ in range(2)]
        with pytest.raises(ValueError, match="never exchanges parameters"):
            AllreduceStrategy().bind(
                world, compressors, get_aggregator("mean"),
                parameter_compressors=[get_compressor("topk") for _ in range(2)])

    def test_strategy_switch_resets_parameter_compression(self):
        base = SyncSpec(strategy="gossip", topology="ring",
                        parameter_compression="topk",
                        parameter_compression_kwargs={"ratio": 0.01})
        merged = base.merged_with({"strategy": "allreduce"})
        assert merged["parameter_compression"] == "none"
        assert merged["parameter_compression_kwargs"] == {}
        # An alias is not a switch: the compressor survives.
        merged = base.merged_with({"strategy": "decentralized"})
        assert merged["parameter_compression"] == "topk"

    def test_cli_flag_merges_into_the_sync_section(self):
        from repro.cli import main
        out = main(["run", "--model", "fnn3", "--workers", "2", "--epochs", "1",
                    "--iterations", "2", "--algorithm", "dense",
                    "--sync", "gossip", "--topology", "ring",
                    "--param-compression", "topk"])
        assert out == 0

    def test_cli_rejects_unknown_parameter_compressor(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["run", "--sync", "gossip", "--param-compression", "warp"])
        assert "warp" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Checkpoint: mid-period resume with residual + reference state.
# --------------------------------------------------------------------- #
class TestMidPeriodCheckpointResume:
    SYNC = {"strategy": "local_sgd", "period": 4,
            "parameter_compression": "topk",
            "parameter_compression_kwargs": {"ratio": 0.05}}

    def test_resume_matches_uninterrupted_schedule_and_state(self, tmp_path):
        # 6 iterations with H=4: the checkpoint lands mid-period (6 % 4 == 2).
        config = make_config("fnn3", 4, sync=self.SYNC, iterations=6)
        trainer = DistributedTrainer(config)
        trainer.train()
        assert trainer.sync_strategy._step == 6
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        resumed = DistributedTrainer(config)
        load_checkpoint(resumed, path)
        original, restored = trainer.sync_strategy, resumed.sync_strategy
        assert restored._step == 6
        assert restored.post_step_pending() == original.post_step_pending() is False

        # Residual + reference state round-trips bit-exactly.
        np.testing.assert_array_equal(restored.parameter_codec._references,
                                      original.parameter_codec._references)
        for a, b in zip(restored.parameter_codec.compressors,
                        original.parameter_codec.compressors):
            np.testing.assert_array_equal(a._residual, b._residual)

        # Driving both strategies forward produces the same sync boundary
        # (iteration 8) — the non-boundary resume did not shift the phase.
        n = trainer.num_parameters
        G = np.zeros((4, n), dtype=np.float32)
        pending = {"original": [], "restored": []}
        rows = {"original": None, "restored": None}
        for label, strategy in (("original", original), ("restored", restored)):
            for _ in range(2):
                strategy.exchange_batched(G)
                pending[label].append(strategy.post_step_pending())
            vectors = [np.full(n, float(p + 1), dtype=np.float32) for p in range(4)]
            strategy.post_step(vectors)
            rows[label] = np.stack(vectors)
        assert pending["original"] == pending["restored"] == [False, True]
        # The boundary exchange itself is bit-identical: it consumed the
        # restored references and residuals.
        np.testing.assert_array_equal(rows["original"], rows["restored"])

    def test_uncompressed_checkpoints_still_load(self, tmp_path):
        config = make_config("fnn3", 2,
                             sync={"strategy": "local_sgd", "period": 3},
                             iterations=4)
        trainer = DistributedTrainer(config)
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        resumed = DistributedTrainer(config)
        load_checkpoint(resumed, path)
        assert resumed.sync_strategy._step == 4


# --------------------------------------------------------------------- #
# Non-contractive parameter compression: advisory note + build warning,
# never a validation failure (the QSGD-default end-to-end runs above must
# keep passing).
# --------------------------------------------------------------------- #
class TestNonContractiveCompressionWarning:
    def test_qsgd_defaults_are_flagged(self):
        from repro.compress import QSGDCompressor
        problem = QSGDCompressor().contraction_problem()
        assert problem is not None and "not contractive" in problem

    def test_contractive_qsgd_is_clean(self):
        from repro.compress import QSGDCompressor
        assert QSGDCompressor(levels=16, bucket_size=64).contraction_problem() is None

    def test_unbucketed_qsgd_is_flagged(self):
        from repro.compress import QSGDCompressor
        problem = QSGDCompressor(bucket_size=None).contraction_problem()
        assert problem is not None and "bucket_size=None" in problem

    def test_sparsifiers_are_contractive_by_construction(self):
        from repro.compress import TopKCompressor
        assert TopKCompressor(ratio=0.01).contraction_problem() is None
        assert get_compressor("dense").contraction_problem() is None

    def test_notes_flag_non_contractive_parameter_compression(self):
        spec = SyncSpec(strategy="local_sgd", period=2,
                        parameter_compression="qsgd")
        notes = spec.notes()
        assert len(notes) == 1
        assert notes[0].startswith("parameter_compression:")
        assert "not contractive" in notes[0]

    def test_notes_empty_for_contractive_configs(self):
        assert SyncSpec(strategy="local_sgd", period=2).notes() == []
        contractive = SyncSpec(
            strategy="local_sgd", period=2, parameter_compression="qsgd",
            parameter_compression_kwargs={"levels": 16, "bucket_size": 64})
        assert contractive.notes() == []
        topk = SyncSpec(strategy="gossip", topology="ring",
                        parameter_compression="topk",
                        parameter_compression_kwargs={"ratio": 0.01})
        assert topk.notes() == []

    def test_validate_still_passes_with_note(self):
        spec = SyncSpec(strategy="local_sgd", period=2,
                        parameter_compression="qsgd")
        assert sync_problems(spec, algorithm="dense") == []

    def test_build_emits_runtime_warning(self):
        spec = SyncSpec(strategy="local_sgd", period=2,
                        parameter_compression="qsgd")
        world = InProcessWorld(2)
        compressors = [get_compressor("dense") for _ in range(2)]
        with pytest.warns(RuntimeWarning, match="not contractive"):
            spec.build(world, compressors)

    def test_build_silent_for_contractive_config(self):
        import warnings as _warnings
        spec = SyncSpec(strategy="local_sgd", period=2,
                        parameter_compression="qsgd",
                        parameter_compression_kwargs={"levels": 16,
                                                      "bucket_size": 64})
        world = InProcessWorld(2)
        compressors = [get_compressor("dense") for _ in range(2)]
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            spec.build(world, compressors)
