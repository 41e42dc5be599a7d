"""Synchronization strategies: exact equality against the pre-redesign
synchronizer, local-SGD schedules, gossip, corruption and the exchange-kind
negotiation."""

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.comm.backend import CollectiveOp
from repro.compress.base import ExchangeKind
from repro.core.callbacks import Callback
from repro.core.flatten import flatten_parameters
from repro.core.timeline import SyncReport
from repro.core.trainer import DistributedTrainer, TrainerConfig
from repro.sync import (
    GradientCorruption,
    SyncSpec,
    get_aggregator,
    merge_reports,
)
from repro.sync.strategies import AllreduceStrategy
from repro.utils.rng import SeedSequenceFactory

from tests.reference_trainer import ReferenceTrainer


# --------------------------------------------------------------------- #
# The pre-redesign GradientSynchronizer, copied verbatim from the seed
# (commit cd5e9e4, core/synchronizer.py) and adapted only by renaming
# dense_model_average -> finalize so it drops into trainer.sync_strategy.
# It is the executable specification the strategy layer must reproduce
# bit for bit when sync = allreduce + mean.
# --------------------------------------------------------------------- #
class LegacySynchronizerReference:
    syncs_parameters = False

    @staticmethod
    def post_step_pending() -> bool:
        return False

    @staticmethod
    def consensus_vector() -> None:
        return None                 # evaluate the mean of the replicas

    def __init__(self, world, compressors):
        self.world = world
        self.compressors = list(compressors)

    def exchange_batched(self, G: np.ndarray) -> Tuple[np.ndarray, SyncReport]:
        G = np.asarray(G, dtype=np.float32)
        if G.ndim != 2 or G.shape[0] != self.world.world_size:
            raise ValueError("bad gradient matrix shape")
        n = G.shape[1]
        reference = self.compressors[0]
        exchange_kind = reference.exchange
        wire_bits = reference.wire_bits(n, self.world.world_size)
        logical_bytes = wire_bits / 8.0
        batch = type(reference)

        start = time.perf_counter()
        payloads, contexts = batch.compress_batch(self.compressors, G)
        kernel_time = time.perf_counter() - start

        comm_before = self.world.simulated_comm_time
        if exchange_kind is ExchangeKind.ALLREDUCE:
            exchanged = self.world.allreduce(payloads, CollectiveOp.MEAN,
                                             logical_bytes=logical_bytes)
        else:
            exchanged = self.world.allgather(payloads, logical_bytes=logical_bytes)
        comm_time = self.world.simulated_comm_time - comm_before

        start = time.perf_counter()
        new_matrix = batch.decompress_batch(self.compressors, exchanged, contexts)
        kernel_time += time.perf_counter() - start

        report = SyncReport(
            compression_time_s=float(kernel_time) / self.world.world_size,
            comm_time_s=float(comm_time),
            wire_bits_per_worker=float(wire_bits),
            exchange=exchange_kind.value,
        )
        return new_matrix, report

    def finalize(self, parameter_vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
        nbytes = float(np.asarray(parameter_vectors[0]).nbytes)
        return self.world.allreduce(list(parameter_vectors), CollectiveOp.MEAN,
                                    logical_bytes=nbytes)


def make_config(model: str, world_size: int, *, algorithm: str = "a2sgd",
                sync=None, epochs: int = 1, iterations: int = 3) -> TrainerConfig:
    kwargs = dict(model=model, preset="tiny", algorithm=algorithm,
                  world_size=world_size, epochs=epochs,
                  max_iterations_per_epoch=iterations, batch_size=8,
                  sync=sync)
    if model == "lstm_ptb":
        kwargs.update(num_train=800, num_test=160, seq_len=8)
    else:
        kwargs.update(num_train=128, num_test=32)
    return TrainerConfig(**kwargs)


def final_params(trainer: DistributedTrainer) -> np.ndarray:
    return np.stack([flatten_parameters(m) for m in trainer.replicas])


def train_params(config: TrainerConfig, legacy: bool = False,
                 trainer_cls=DistributedTrainer) -> np.ndarray:
    trainer = trainer_cls(config)
    if legacy:
        trainer.sync_strategy = LegacySynchronizerReference(trainer.world,
                                                            trainer.compressors)
    trainer.train()
    return final_params(trainer)


class TestExactEqualityWithPreRedesignSynchronizer:
    """Acceptance: default sync=allreduce + aggregator=mean training is
    bit-identical to the pre-redesign trainer for fnn3 and lstm_ptb at
    world sizes {2, 4, 8}."""

    @pytest.mark.parametrize("world_size", [2, 4, 8])
    def test_fnn3(self, world_size):
        config = make_config("fnn3", world_size)
        np.testing.assert_array_equal(
            train_params(config), train_params(config, legacy=True))

    @pytest.mark.parametrize("world_size", [2, 4, 8])
    def test_lstm_ptb(self, world_size):
        config = make_config("lstm_ptb", world_size, iterations=2)
        np.testing.assert_array_equal(
            train_params(config), train_params(config, legacy=True))


class ReportRecorder(Callback):
    def __init__(self):
        self.reports: List[SyncReport] = []

    def on_iteration_end(self, state) -> None:
        self.reports.append(state.report)


class TestLocalSGD:
    def test_period_one_is_bit_identical_to_default(self):
        default = make_config("fnn3", 4, epochs=2)
        local = make_config("fnn3", 4, epochs=2,
                            sync={"strategy": "local_sgd", "period": 1})
        np.testing.assert_array_equal(train_params(default), train_params(local))

    def test_periodic_sync_heals_replica_drift(self):
        """Between syncs replicas drift apart; every H-th iteration the
        parameter exchange makes them identical again (mean aggregation)."""
        config = make_config("fnn3", 4, algorithm="dense", iterations=6,
                             sync={"strategy": "local_sgd", "period": 3})
        config.num_train = 256        # 8 batches/shard so all 6 iterations run
        trainer = DistributedTrainer(config)

        spreads: List[float] = []

        class Spread(Callback):
            def on_iteration_end(self, state) -> None:
                P = final_params(state.trainer)
                spreads.append(float(np.abs(P - P[0]).max()))

        trainer.callbacks.append(Spread())
        trainer.train()
        # Iterations (1-indexed) 3 and 6 are sync points: zero spread.
        assert spreads[2] == 0.0 and spreads[5] == 0.0
        # Local-only iterations leave the replicas apart.
        assert spreads[0] > 0.0 and spreads[1] > 0.0 and spreads[4] > 0.0

    def test_reports_label_local_and_sync_iterations(self):
        config = make_config("fnn3", 4, algorithm="dense", iterations=4,
                             sync={"strategy": "local_sgd", "period": 2})
        trainer = DistributedTrainer(config)
        recorder = ReportRecorder()
        trainer.callbacks.append(recorder)
        trainer.train()
        exchanges = [r.exchange for r in recorder.reports]
        assert exchanges == ["local", "local+parameter_allreduce"] * 2
        assert recorder.reports[0].comm_time_s == 0.0
        assert recorder.reports[0].wire_bits_per_worker == 0.0
        assert recorder.reports[1].comm_time_s > 0.0

    def test_gradient_wire_traffic_only_on_sync_with_period_one(self):
        """H=1 never exchanges parameters — it is the gradient allreduce."""
        config = make_config("fnn3", 4, iterations=3,
                             sync={"strategy": "local_sgd", "period": 1})
        trainer = DistributedTrainer(config)
        trainer.train()
        counts = trainer.world.stats.collective_counts
        # 3 gradient allreduces + 1 final dense consolidation, no allgathers.
        assert counts.get("allreduce_ring", 0) == 4
        assert "allgather" not in counts
        assert "neighbor_exchange" not in counts


class TestGossip:
    def test_fully_connected_matches_mean_allreduce_within_float32(self):
        """Acceptance: gossip on a complete graph equals dense mean-allreduce
        training up to float32 rounding."""
        dense = make_config("fnn3", 4, algorithm="dense", epochs=2)
        gossip = make_config("fnn3", 4, algorithm="dense", epochs=2,
                             sync={"strategy": "gossip",
                                   "topology": "fully_connected"})
        a, b = train_params(dense), train_params(gossip)
        np.testing.assert_allclose(a, b, rtol=2e-5, atol=2e-6)

    def test_ring_gossip_runs_and_exchanges_neighborwise(self):
        config = make_config("fnn3", 4, algorithm="dense", iterations=4,
                             sync={"strategy": "gossip", "topology": "ring"})
        trainer = DistributedTrainer(config)
        trainer.train()
        counts = trainer.world.stats.collective_counts
        assert counts.get("neighbor_exchange", 0) == 4
        # Replicas are consolidated by the final dense exchange.
        P = final_params(trainer)
        np.testing.assert_array_equal(P, np.tile(P[0], (4, 1)))

    def test_star_topology_runs(self):
        config = make_config("fnn3", 5, algorithm="dense", iterations=2,
                             sync={"strategy": "gossip", "topology": "star"})
        DistributedTrainer(config).train()

    def test_matches_the_per_rank_reference_to_float32(self):
        config = make_config("fnn3", 4, algorithm="dense",
                             sync={"strategy": "gossip", "topology": "ring"})
        a = train_params(config)
        b = train_params(config, trainer_cls=ReferenceTrainer)
        np.testing.assert_allclose(a, b, rtol=2e-5, atol=2e-6)

    def test_requires_topology(self):
        from repro.comm.inprocess import InProcessWorld
        from repro.compress.registry import get_compressor
        from repro.sync.strategies import GossipStrategy

        world = InProcessWorld(2)
        compressors = [get_compressor("dense") for _ in range(2)]
        with pytest.raises(ValueError, match="requires a topology"):
            GossipStrategy().bind(world, compressors, get_aggregator("mean"))


class TestCorruption:
    def test_sign_flip_changes_training(self):
        clean = make_config("fnn3", 4, algorithm="dense")
        flipped = make_config("fnn3", 4, algorithm="dense",
                              sync={"corrupt_ranks": [0]})
        assert not np.array_equal(train_params(clean), train_params(flipped))

    def test_corruption_matches_the_per_rank_reference(self):
        sync = {"corrupt_ranks": [1], "corruption": "scale", "corruption_scale": 3.0}
        config = make_config("fnn3", 4, algorithm="dense", sync=sync)
        np.testing.assert_allclose(
            train_params(config),
            train_params(config, trainer_cls=ReferenceTrainer),
            rtol=2e-5, atol=2e-6)

    def test_geometric_median_shrugs_off_byzantine_ranks_where_mean_fails(self):
        """Acceptance scenario: corrupted ranks drag mean-aggregated training
        far from the clean trajectory; the geometric median stays close."""
        clean = train_params(make_config("fnn3", 8, algorithm="dense",
                                         iterations=5))
        corrupt = {"corrupt_ranks": [1, 5], "corruption": "scale",
                   "corruption_scale": -25.0}
        mean_run = train_params(make_config(
            "fnn3", 8, algorithm="dense", iterations=5, sync=corrupt))
        robust_run = train_params(make_config(
            "fnn3", 8, algorithm="dense", iterations=5,
            sync={**corrupt, "aggregator": "geometric_median"}))
        mean_drift = float(np.abs(mean_run - clean).max())
        robust_drift = float(np.abs(robust_run - clean).max())
        assert robust_drift < 0.2 * mean_drift

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown corruption"):
            GradientCorruption([0], kind="explode")
        with pytest.raises(ValueError, match="non-negative"):
            GradientCorruption([-1])
        corruption = GradientCorruption([3])
        with pytest.raises(ValueError, match="out of range"):
            corruption.validate_world(2)

    def test_out_of_range_rank_rejected_at_trainer_construction(self):
        config = make_config("fnn3", 2, sync={"corrupt_ranks": [5]})
        with pytest.raises(ValueError, match="out of range"):
            DistributedTrainer(config)


class TestExchangeKindNegotiation:
    def test_robust_aggregator_rejected_for_allgather_compressor(self):
        config = make_config("fnn3", 4, algorithm="topk",
                             sync={"aggregator": "coordinate_median"})
        with pytest.raises(ValueError, match="allreduce-kind compressors only"):
            DistributedTrainer(config)

    def test_robust_aggregator_gathers_a2sgd_payloads(self):
        """With a robust aggregator the allreduce-kind payloads travel by
        allgather and are combined off-wire — no payload allreduce happens."""
        config = make_config("fnn3", 4, algorithm="a2sgd", iterations=3,
                             sync={"aggregator": "trimmed_mean"})
        trainer = DistributedTrainer(config)
        recorder = ReportRecorder()
        trainer.callbacks.append(recorder)
        trainer.train()
        counts = trainer.world.stats.collective_counts
        # 3 gradient exchanges + the final parameter consolidation, which a
        # robust aggregator also performs by gathering.
        assert counts.get("allgather", 0) == 4
        assert "allreduce_ring" not in counts
        assert all(r.exchange == "allgather" for r in recorder.reports)

    def test_robust_aggregator_allowed_for_parameter_only_strategies(self):
        """local_sgd (H>1) and gossip never put gradients on the wire, so
        any aggregator composes with any compressor."""
        for sync in ({"strategy": "local_sgd", "period": 2,
                      "aggregator": "coordinate_median"},
                     {"strategy": "gossip", "topology": "ring",
                      "aggregator": "trimmed_mean"}):
            config = make_config("fnn3", 4, algorithm="topk",
                                 iterations=2, sync=sync)
            DistributedTrainer(config).train()

    def test_mean_aggregator_keeps_the_native_collective(self):
        config = make_config("fnn3", 4, algorithm="a2sgd", iterations=2)
        trainer = DistributedTrainer(config)
        trainer.train()
        counts = trainer.world.stats.collective_counts
        assert "allgather" not in counts
        assert counts.get("allreduce_ring", 0) == 3   # 2 iters + finalize


class TestStrategyPlumbing:
    def test_compressor_validation_messages_preserved(self):
        from repro.comm.inprocess import InProcessWorld
        from repro.compress.registry import get_compressor

        world = InProcessWorld(2)
        mean = get_aggregator("mean")
        with pytest.raises(ValueError, match="need one compressor per rank"):
            AllreduceStrategy().bind(world, [get_compressor("dense")], mean)
        shared = get_compressor("dense")
        with pytest.raises(ValueError, match="must not be shared"):
            AllreduceStrategy().bind(world, [shared, shared], mean)
        with pytest.raises(ValueError, match="same compression algorithm"):
            AllreduceStrategy().bind(
                world, [get_compressor("dense"), get_compressor("a2sgd")], mean)

    def test_merge_reports(self):
        gradient = SyncReport(compression_time_s=1.0, comm_time_s=2.0,
                              wire_bits_per_worker=64.0, exchange="allreduce")
        parameter = SyncReport(compression_time_s=0.0, comm_time_s=3.0,
                               wire_bits_per_worker=32.0,
                               exchange="parameter_allreduce")
        merged = merge_reports(gradient, parameter)
        assert merged.comm_time_s == 5.0
        assert merged.wire_bits_per_worker == 96.0
        assert merged.exchange == "allreduce+parameter_allreduce"
        assert merge_reports(gradient, None) is gradient

    def test_checkpoint_restores_sync_phase(self, tmp_path):
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        config = make_config("fnn3", 2, algorithm="dense", iterations=4,
                             sync={"strategy": "local_sgd", "period": 3})
        trainer = DistributedTrainer(config)
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        resumed = DistributedTrainer(config)
        load_checkpoint(resumed, path)
        assert resumed.sync_strategy._step == trainer._global_iteration

    def test_spec_json_round_trip_constructs_every_strategy(self):
        """Acceptance: all strategies/aggregators are constructible from a
        JSON-round-tripped spec."""
        import json

        from repro.comm.inprocess import InProcessWorld
        from repro.compress.registry import get_compressor

        setups = [
            {"strategy": "allreduce", "aggregator": "mean"},
            {"strategy": "allreduce", "aggregator": "trimmed_mean",
             "aggregator_kwargs": {"trim_ratio": 0.25}},
            {"strategy": "allreduce", "aggregator": "geometric_median"},
            {"strategy": "local_sgd", "period": 4,
             "aggregator": "coordinate_median"},
            {"strategy": "gossip", "topology": "star", "aggregator": "mean"},
        ]
        world = InProcessWorld(4)
        for payload in setups:
            round_tripped = json.loads(json.dumps(payload))
            spec = SyncSpec.from_dict(round_tripped)
            assert SyncSpec.from_dict(spec.to_dict()) == spec
            compressors = [get_compressor("dense") for _ in range(4)]
            strategy = spec.build(world, compressors, SeedSequenceFactory(0))
            assert strategy.aggregator is not None


class TestPostStepPending:
    """The trainer runs the parameter phase only when the strategy will
    actually exchange parameters this iteration."""

    def test_local_sgd_pending_only_on_sync_iterations(self):
        config = make_config("fnn3", 4, algorithm="dense", iterations=4,
                             sync={"strategy": "local_sgd", "period": 2})
        trainer = DistributedTrainer(config)
        strategy = trainer.sync_strategy
        assert not strategy.post_step_pending()     # before any exchange
        pending = []

        class Probe(Callback):
            def on_iteration_end(self, state) -> None:
                pending.append(state.trainer.sync_strategy.post_step_pending())

        trainer.callbacks.append(Probe())
        trainer.train()
        assert pending == [False, True, False, True]

    def test_allreduce_never_pending(self):
        config = make_config("fnn3", 2, iterations=2)
        trainer = DistributedTrainer(config)
        trainer.train()
        assert not trainer.sync_strategy.post_step_pending()


class TestWireBitsAccounting:
    """trainer.wire_bits_per_iteration is strategy-aware: parameter-phase
    strategies report their own traffic, not the compressor's constant."""

    def test_allreduce_reports_compressor_bits(self):
        trainer = DistributedTrainer(make_config("fnn3", 4))
        assert trainer.wire_bits_per_iteration == 64.0       # a2sgd

    def test_local_sgd_reports_amortized_parameter_bits(self):
        trainer = DistributedTrainer(make_config(
            "fnn3", 4, sync={"strategy": "local_sgd", "period": 4}))
        n = trainer.num_parameters
        assert trainer.wire_bits_per_iteration == 32.0 * n / 4

    def test_local_sgd_h1_reports_compressor_bits(self):
        trainer = DistributedTrainer(make_config(
            "fnn3", 4, sync={"strategy": "local_sgd", "period": 1}))
        assert trainer.wire_bits_per_iteration == 64.0

    def test_gossip_reports_neighbor_payload_bits(self):
        trainer = DistributedTrainer(make_config(
            "fnn3", 4, algorithm="dense",
            sync={"strategy": "gossip", "topology": "ring"}))
        n = trainer.num_parameters
        assert trainer.wire_bits_per_iteration == 2.0 * 32.0 * n   # degree 2

    def test_sync_setups_report_distinct_traffic_in_sweeps(self):
        """The synchronization_sweep traffic column differentiates setups."""
        from repro.analysis.sweeps import synchronization_sweep

        results = synchronization_sweep(model="fnn3", algorithm="a2sgd",
                                        world_size=4, epochs=1,
                                        max_iterations_per_epoch=2)
        bits = {label: row["wire_bits"] for label, row in results.items()}
        assert bits["allreduce"] == 64.0
        assert bits["local_sgd_h4"] > bits["allreduce"]
        assert bits["gossip_ring"] > bits["local_sgd_h4"]


class TestSyncSpecMerge:
    """merged_with owns the CLI's switch-and-reset override policy."""

    def test_plain_override_keeps_other_fields(self):
        base = SyncSpec(strategy="local_sgd", period=4)
        merged = base.merged_with({"aggregator": "coordinate_median"})
        assert merged["strategy"] == "local_sgd" and merged["period"] == 4
        assert merged["aggregator"] == "coordinate_median"

    def test_strategy_switch_resets_period_and_topology(self):
        base = SyncSpec(strategy="gossip", topology="star")
        merged = base.merged_with({"strategy": "allreduce"})
        assert merged["topology"] == "ring" and merged["period"] == 1

    def test_alias_is_not_a_switch(self):
        base = SyncSpec(strategy="localsgd", period=4)
        merged = base.merged_with({"strategy": "local_sgd"})
        assert merged["period"] == 4

    def test_aggregator_switch_resets_kwargs_but_alias_does_not(self):
        base = SyncSpec(aggregator="trimmed_mean",
                        aggregator_kwargs={"trim_ratio": 0.25})
        assert base.merged_with({"aggregator": "mean"})["aggregator_kwargs"] == {}
        assert base.merged_with({"aggregator": "trimmed_mean"}
                                )["aggregator_kwargs"] == {"trim_ratio": 0.25}

    def test_explicit_override_wins_over_reset(self):
        base = SyncSpec(strategy="gossip", topology="star")
        merged = base.merged_with({"strategy": "local_sgd", "period": 8})
        assert merged["period"] == 8
