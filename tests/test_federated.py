"""The federated client-population layer (PR: client sampling over slots).

Covers the tentpole end to end: cohort samplers (seeded, reproducible,
world-size independent), non-IID per-client partitioning, the hierarchical
two-level topology and its cohort-only wire pricing, fedavg's pinned
bit-identity with local_sgd under the full sampler, lazy slot binding for
N ≫ P populations, mid-round checkpoint resume with swapped-out per-client
state, and the spec/CLI validation messages.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.comm.topology import HierarchicalTopology, get_topology
from repro.core import DistributedTrainer, TrainerConfig, load_checkpoint, save_checkpoint
from repro.core.callbacks import Callback
from repro.core.flatten import flatten_parameters
from repro.core.spec import ExperimentSpec, SpecError
from repro.data.dataloader import shard_dataset
from repro.data.partition import partition_clients, partition_indices
from repro.data.registry import get_dataset
from repro.federated import CLIENT_SAMPLERS, ClientSpec
from repro.sync import SYNC_STRATEGIES, SyncSpec

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def make_trainer(callbacks=None, **overrides) -> DistributedTrainer:
    base = dict(model="fnn3", preset="tiny", algorithm="dense", world_size=4,
                epochs=2, seed=0, batch_size=8, num_train=192, num_test=48,
                max_iterations_per_epoch=6)
    base.update(overrides)
    return DistributedTrainer(TrainerConfig(**base), callbacks=callbacks)


def final_params(trainer: DistributedTrainer) -> np.ndarray:
    return np.stack([flatten_parameters(m) for m in trainer.replicas])


class StopAfterEpoch(Callback):
    """Interrupt training after ``epochs`` completed epochs (mid-run stop)."""

    def __init__(self, epochs: int):
        self.epochs = int(epochs)

    def on_epoch_end(self, state) -> None:
        if state.epoch + 1 >= self.epochs:
            state.stop_requested = True


class SaveAfterEpoch(Callback):
    """Write a checkpoint at the end of one specific epoch, mid-training
    (before train()'s final consolidation collapses the replicas)."""

    def __init__(self, path, epoch: int = 0):
        self.path = path
        self.epoch = int(epoch)

    def on_epoch_end(self, state) -> None:
        if state.epoch == self.epoch:
            save_checkpoint(state.trainer, self.path)


# --------------------------------------------------------------------- #
# cohort samplers
# --------------------------------------------------------------------- #
class TestClientSamplers:
    def test_registry_lists_both_families(self):
        assert "full" in CLIENT_SAMPLERS
        assert "uniform_without_replacement" in CLIENT_SAMPLERS
        assert CLIENT_SAMPLERS.canonical("uniform") == "uniform_without_replacement"
        assert CLIENT_SAMPLERS.canonical("all") == "full"

    def test_uniform_cohorts_are_seeded_and_reproducible(self):
        sampler = CLIENT_SAMPLERS.create("uniform")
        first = [sampler.sample(r, 32, 4, seed=7) for r in range(10)]
        again = [sampler.sample(r, 32, 4, seed=7) for r in range(10)]
        assert first == again
        assert [sampler.sample(r, 32, 4, seed=8) for r in range(10)] != first

    def test_cohorts_are_sorted_distinct_and_in_range(self):
        sampler = CLIENT_SAMPLERS.create("uniform")
        for round_index in range(20):
            cohort = sampler.sample(round_index, 16, 5, seed=3)
            assert cohort == tuple(sorted(set(cohort)))
            assert len(cohort) == 5
            assert all(0 <= c < 16 for c in cohort)

    @pytest.mark.parametrize("round_index", [0, 1, 3, 11])
    def test_cohort_sequence_is_world_size_independent(self, round_index):
        # The same (seed, round) draws nested cohorts for K = 2, 4, 8: the
        # cohort is a prefix of one permutation, so scaling the materialized
        # world up or down never reshuffles who participates when.
        sampler = CLIENT_SAMPLERS.create("uniform")
        cohorts = {k: set(sampler.sample(round_index, 32, k, seed=7))
                   for k in (2, 4, 8)}
        assert cohorts[2] <= cohorts[4] <= cohorts[8]

    def test_full_sampler_returns_everyone(self):
        sampler = CLIENT_SAMPLERS.create("full")
        assert sampler.sample(5, 6, 6, seed=0) == tuple(range(6))
        with pytest.raises(ValueError):
            sampler.sample(0, 6, 4, seed=0)


# --------------------------------------------------------------------- #
# non-IID per-client partitioning
# --------------------------------------------------------------------- #
class TestPartitioning:
    def _targets(self, n=500, classes=10, seed=0):
        return np.random.default_rng(seed).integers(0, classes, size=n)

    @pytest.mark.parametrize("policy,kwargs", [
        ("iid", {}),
        ("dirichlet", {"alpha": 0.3}),
        ("shards", {}),
    ])
    def test_partition_is_exact(self, policy, kwargs):
        targets = self._targets()
        shards = partition_indices(targets, 16, policy=policy, seed=5, **kwargs)
        assert len(shards) == 16
        assert all(len(s) >= 1 for s in shards)
        merged = np.concatenate(shards)
        assert len(merged) == len(targets)
        assert len(np.unique(merged)) == len(targets)      # disjoint + cover

    def test_dirichlet_is_deterministic_per_client_id(self):
        targets = self._targets()
        first = partition_indices(targets, 16, policy="dirichlet", seed=5, alpha=0.3)
        again = partition_indices(targets, 16, policy="dirichlet", seed=5, alpha=0.3)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        other_seed = partition_indices(targets, 16, policy="dirichlet", seed=6,
                                       alpha=0.3)
        assert any(not np.array_equal(a, b) for a, b in zip(first, other_seed))

    def test_dirichlet_skews_labels(self):
        targets = self._targets(n=2000)
        shards = partition_indices(targets, 16, policy="dirichlet", seed=5,
                                   alpha=0.1)
        iid = partition_indices(targets, 16, policy="iid", seed=5)

        def mean_class_count(split):
            return float(np.mean([len(np.unique(targets[s])) for s in split]))

        # Severe alpha concentrates each client on far fewer classes.
        assert mean_class_count(shards) < mean_class_count(iid) - 1.0

    def test_iid_partition_matches_shard_dataset_at_equal_sizes(self):
        # The fedavg ≡ local_sgd bit-identity rests on this: with N == P the
        # iid partition serves exactly the trainer's default per-rank shards.
        train, _ = get_dataset("cifar10_tiny", seed=0, num_train=128,
                               num_test=32)
        clients = partition_clients(train, 4, policy="iid", seed=0)
        for rank in range(4):
            expected = shard_dataset(train, rank, 4, shuffle_seed=0)
            np.testing.assert_array_equal(clients[rank].inputs, expected.inputs)
            np.testing.assert_array_equal(clients[rank].targets, expected.targets)

    def test_unknown_policy_and_bad_alpha_are_rejected(self):
        targets = self._targets()
        with pytest.raises(ValueError, match="unknown data_skew"):
            partition_indices(targets, 4, policy="zipf")
        with pytest.raises(ValueError, match="alpha > 0"):
            partition_indices(targets, 4, policy="dirichlet", alpha=-1.0)


# --------------------------------------------------------------------- #
# hierarchical (two-level) topology
# --------------------------------------------------------------------- #
class TestHierarchicalTopology:
    def test_registered_with_aliases(self):
        assert isinstance(get_topology("hierarchical"), HierarchicalTopology)
        assert isinstance(get_topology("two_level"), HierarchicalTopology)

    def test_edge_groups_are_contiguous_and_cover(self):
        topology = HierarchicalTopology(num_edges=2)
        assert topology.edge_groups(8) == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert topology.max_group_size(8) == 4
        three = HierarchicalTopology(num_edges=3).edge_groups(8)
        assert sum(len(g) for g in three) == 8
        assert all(len(g) >= 1 for g in three)

    def test_more_edges_than_ranks_clamps(self):
        topology = HierarchicalTopology(num_edges=8)
        groups = topology.edge_groups(3)
        assert len(groups) == 3
        assert all(len(g) == 1 for g in groups)

    def test_neighbors_stay_within_one_edge_group(self):
        topology = HierarchicalTopology(num_edges=2)
        assert topology.neighbors(1, 8) == (0, 2, 3)
        assert topology.neighbors(5, 8) == (4, 6, 7)
        assert topology.edge_of(5, 8) == 1

    def test_invalid_num_edges_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalTopology(num_edges=0)


# --------------------------------------------------------------------- #
# fedavg: pinned bit-identity with local_sgd under the full sampler
# --------------------------------------------------------------------- #
class TestFedAvgEquivalence:
    def test_full_sampler_equals_local_sgd_bit_for_bit(self):
        local = make_trainer(sync={"strategy": "local_sgd", "period": 2})
        local_metrics = local.train()
        fedavg = make_trainer(sync={"strategy": "fedavg", "period": 2},
                              clients={"num_clients": 4, "sampler": "full"})
        fedavg_metrics = fedavg.train()
        np.testing.assert_array_equal(final_params(local), final_params(fedavg))
        assert local_metrics.train_loss == fedavg_metrics.train_loss
        assert local_metrics.metric == fedavg_metrics.metric

    def test_fedavg_is_registered(self):
        assert "fedavg" in SYNC_STRATEGIES
        assert SYNC_STRATEGIES.canonical("federated_averaging") == "fedavg"


# --------------------------------------------------------------------- #
# sampled cohorts: N ≫ P with lazy slot binding
# --------------------------------------------------------------------- #
class TestSampledCohorts:
    CLIENTS = {"num_clients": 16, "sampler": "uniform", "sampler_seed": 7,
               "data_skew": "dirichlet", "data_skew_kwargs": {"alpha": 0.3}}

    def test_run_materializes_only_cohort_slots(self):
        trainer = make_trainer(sync={"strategy": "fedavg", "period": 2},
                               clients=self.CLIENTS, num_train=512,
                               max_iterations_per_epoch=8)
        metrics = trainer.train()
        assert all(np.isfinite(metrics.train_loss))
        # Only (K, n) buffers exist, never (N, n).
        assert trainer.flat_world.param_matrix.shape[0] == 4
        assert trainer._velocity_matrix.shape[0] == 4
        summary = trainer.population.summary()
        assert summary["num_clients"] == 16
        assert summary["cohort_size"] == 4
        assert summary["unique_clients_seen"] > 4
        # The parking lot holds only clients that were actually swapped out.
        assert len(trainer.population.store) <= summary["unique_clients_seen"]

    def test_cohort_sequence_reruns_identically(self):
        runs = []
        for _ in range(2):
            trainer = make_trainer(sync={"strategy": "fedavg", "period": 2},
                                   clients=self.CLIENTS)
            trainer.train()
            runs.append(list(trainer.population.cohort_history))
        assert runs[0] == runs[1]

    def test_participation_metrics_recorded(self):
        trainer = make_trainer(sync={"strategy": "fedavg", "period": 2},
                               clients=self.CLIENTS)
        metrics = trainer.train()
        assert metrics.active_clients == [4, 4]
        assert metrics.cohort_fraction == [0.25, 0.25]
        # Cumulative distinct participants never decrease.
        assert metrics.unique_clients_seen[0] <= metrics.unique_clients_seen[1]
        assert metrics.unique_clients_seen[-1] > 4

    def test_csv_has_participation_columns(self, tmp_path):
        trainer = make_trainer(sync={"strategy": "fedavg", "period": 2},
                               clients=self.CLIENTS)
        trainer.train()
        path = trainer.metrics.to_csv(tmp_path / "metrics.csv")
        header = path.read_text().splitlines()[0].split(",")
        for column in ("active_clients", "cohort_fraction", "unique_clients_seen"):
            assert column in header

    def test_without_population_metrics_degenerate_to_world_size(self):
        trainer = make_trainer(epochs=1)
        metrics = trainer.train()
        assert metrics.active_clients == [4]
        assert metrics.cohort_fraction == [1.0]
        assert metrics.unique_clients_seen == [4]


# --------------------------------------------------------------------- #
# hierarchical fedavg: cohort-priced two-level aggregation
# --------------------------------------------------------------------- #
class TestHierarchicalFedAvg:
    SYNC = {"strategy": "fedavg", "period": 2, "topology": "hierarchical"}

    def test_wire_accounting_prices_the_active_cohort_tree(self):
        clients = {"num_clients": 64, "sampler": "uniform", "sampler_seed": 7}
        tree = make_trainer(world_size=8, sync=self.SYNC, clients=clients)
        flat = make_trainer(world_size=8, clients=clients,
                            sync={"strategy": "fedavg", "period": 2})
        n = tree.num_parameters
        # Busiest edge aggregator: its group's uplinks plus the server link,
        # amortized over the period — a function of K (the cohort), never N.
        expected = (4 + 1) * 32.0 * n / 2
        assert tree.wire_bits_per_iteration == pytest.approx(expected)
        assert flat.wire_bits_per_iteration == pytest.approx(32.0 * n / 2)

    def test_two_level_average_matches_flat_average(self):
        clients = {"num_clients": 64, "sampler": "uniform", "sampler_seed": 7}
        tree = make_trainer(world_size=8, sync=self.SYNC, clients=clients)
        flat = make_trainer(world_size=8, clients=clients,
                            sync={"strategy": "fedavg", "period": 2})
        tree_metrics = tree.train()
        flat_metrics = flat.train()
        assert all(np.isfinite(tree_metrics.train_loss))
        # Count-weighted per-edge partial sums reduce to the same cohort
        # mean (float64 partials, so only approximately in float32 terms).
        np.testing.assert_allclose(final_params(tree), final_params(flat),
                                   rtol=0, atol=1e-5)
        # The tree exchange costs simulated wire time.
        assert tree.world.simulated_comm_time > 0.0

    def test_tree_average_compresses_nothing(self):
        """Dense partial sums are aggregation (priced by ``combine_time_s``),
        not compression."""
        tree = make_trainer(sync=self.SYNC)
        tree.train()
        assert tree.world.simulated_comm_time > 0.0
        assert tree.timeline.compression_s == 0.0

    def test_only_hierarchical_topology_binds(self):
        with pytest.raises(SpecError, match="accepts the two-level "
                                            "'hierarchical' topology only"):
            ExperimentSpec(sync={"strategy": "fedavg", "period": 2,
                                 "topology": "star"}).validate()

    def test_robust_aggregators_require_flat_fedavg(self):
        with pytest.raises(SpecError, match="elementwise aggregators only"):
            ExperimentSpec(sync={"strategy": "fedavg", "period": 2,
                                 "topology": "hierarchical",
                                 "aggregator": "trimmed_mean"}).validate()


# --------------------------------------------------------------------- #
# mid-round checkpoint resume
# --------------------------------------------------------------------- #
class TestMidRoundCheckpointResume:
    # H=4 with 6 iterations/epoch: the epoch-0 checkpoint lands mid-round
    # (6 % 4 == 2), with per-client state parked in the store and live
    # codec references/residuals on the slots.
    KW = dict(algorithm="topk", compressor_kwargs={"ratio": 0.05},
              sync={"strategy": "fedavg", "period": 4,
                    "parameter_compression": "topk",
                    "parameter_compression_kwargs": {"ratio": 0.05}},
              clients={"num_clients": 12, "sampler": "uniform",
                       "sampler_seed": 3, "data_skew": "dirichlet",
                       "data_skew_kwargs": {"alpha": 0.5}})

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        uninterrupted = make_trainer(**self.KW)
        uninterrupted.train()

        path = tmp_path / "ckpt.npz"
        first_half = make_trainer(
            callbacks=[SaveAfterEpoch(path, epoch=0), StopAfterEpoch(1)],
            **self.KW)
        first_half.train()

        resumed = make_trainer(**self.KW)
        load_checkpoint(resumed, path)
        assert resumed._global_iteration == 6
        # Mid-round state round-trips: the restored assignment and parked
        # per-client entries mirror the interrupted run's.
        mid = resumed.population
        assert mid.assignment is not None
        assert mid.rounds_completed == 2          # boundaries at 0 and 4
        resumed.train()

        np.testing.assert_array_equal(final_params(uninterrupted),
                                      final_params(resumed))
        assert resumed.metrics.train_loss == uninterrupted.metrics.train_loss
        assert resumed.metrics.metric == uninterrupted.metrics.metric
        # The sampler stream continued, not restarted: the post-resume
        # cohorts equal the uninterrupted run's later rounds.
        assert resumed.population.cohort_history == \
            uninterrupted.population.cohort_history[2:]
        assert resumed.population.summary()["unique_clients_seen"] == \
            uninterrupted.population.summary()["unique_clients_seen"]

    def test_swapped_out_state_round_trips_bitwise(self, tmp_path):
        trainer = make_trainer(
            callbacks=[SaveAfterEpoch(tmp_path / "ckpt.npz", epoch=0),
                       StopAfterEpoch(1)],
            **self.KW)
        trainer.train()
        resumed = make_trainer(**self.KW)
        load_checkpoint(resumed, tmp_path / "ckpt.npz")
        store, restored = trainer.population.store, resumed.population.store
        assert restored.clients()  # the mid-round store is non-trivial
        assert restored.clients() == store.clients()
        for client in store.clients():
            a, b = store.get(client), restored.get(client)
            np.testing.assert_array_equal(a["velocity"], b["velocity"])
            assert set(a["compressor"]) == set(b["compressor"])
            for kind in a["compressor"]:
                np.testing.assert_array_equal(a["compressor"][kind],
                                              b["compressor"][kind])
        assert resumed.population.assignment.clients == \
            trainer.population.assignment.clients


# --------------------------------------------------------------------- #
# validation: spec + trainer raise the same pinned messages
# --------------------------------------------------------------------- #
class TestClientValidation:
    def test_cohort_exceeding_population_is_pinned(self):
        message = ("clients: cohort_size 8 exceeds num_clients 4; the "
                   "sampled cohort cannot be larger than the client "
                   "population")
        spec = ExperimentSpec(world_size=8,
                              sync={"strategy": "fedavg", "period": 2},
                              clients={"num_clients": 4, "cohort_size": 8})
        with pytest.raises(SpecError) as excinfo:
            spec.validate()
        assert message in str(excinfo.value)
        with pytest.raises(ValueError, match="cannot be larger"):
            DistributedTrainer(spec.to_trainer_config())

    def test_clients_require_fedavg(self):
        with pytest.raises(SpecError, match="requires sync strategy 'fedavg'"):
            ExperimentSpec(clients={"num_clients": 8},
                           world_size=4).validate()

    def test_sampled_cohorts_require_period_two(self):
        with pytest.raises(SpecError, match="sync period >= 2"):
            ExperimentSpec(world_size=4,
                           sync={"strategy": "fedavg", "period": 1},
                           clients={"num_clients": 8}).validate()

    def test_full_sampler_requires_everyone(self):
        with pytest.raises(SpecError, match="cohort_size == num_clients"):
            ExperimentSpec(world_size=4,
                           sync={"strategy": "fedavg", "period": 2},
                           clients={"num_clients": 8,
                                    "sampler": "full"}).validate()

    def test_faults_are_incompatible(self):
        with pytest.raises(SpecError, match="fault injection is not supported"):
            ExperimentSpec(world_size=4,
                           sync={"strategy": "fedavg", "period": 2},
                           faults="crash_stop",
                           clients={"num_clients": 8}).validate()

    def test_cohort_without_population_is_rejected(self):
        with pytest.raises(SpecError, match="num_clients\\s+is unset"):
            ExperimentSpec(clients={"cohort_size": 4}).validate()

    def test_unknown_clients_key_is_rejected(self):
        with pytest.raises(SpecError, match="unknown clients field"):
            ExperimentSpec(clients={"num_client": 8}).validate()

    def test_disabled_section_is_default_and_silent(self):
        spec = ExperimentSpec()
        assert spec.resolved_clients().enabled is False
        spec.validate()

    def test_merged_with_resets_kwargs_on_skew_switch(self):
        spec = ClientSpec(num_clients=8, data_skew="dirichlet",
                          data_skew_kwargs={"alpha": 0.3})
        merged = spec.merged_with({"data_skew": "shards"})
        assert merged["data_skew_kwargs"] == {}
        kept = spec.merged_with({"data_skew": "dirichlet"})
        assert kept["data_skew_kwargs"] == {"alpha": 0.3}


# --------------------------------------------------------------------- #
# acceptance: the shipped example spec end to end
# --------------------------------------------------------------------- #
class TestExampleSpec:
    def test_fedavg_noniid_example_runs(self):
        spec = ExperimentSpec.from_file(EXAMPLES / "spec_fedavg_noniid.json")
        spec.validate()
        payload = json.loads((EXAMPLES / "spec_fedavg_noniid.json").read_text())
        assert payload["clients"]["num_clients"] == 64
        assert payload["clients"]["cohort_size"] == 8

        trainer = DistributedTrainer(spec.to_trainer_config())
        metrics = trainer.train()
        assert all(np.isfinite(metrics.train_loss))
        # N=64 logical clients over exactly (8, n) materialized buffers.
        assert trainer.flat_world.param_matrix.shape[0] == 8
        assert trainer.population.summary()["unique_clients_seen"] > 8
