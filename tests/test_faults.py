"""Fault-injection subsystem unit tests: seeded fault schedules, the live
membership mask, membership-aware collectives and topology re-routing, the
injector's counters/pricing, and the declarative ``faults`` spec section
(tentpole: fault injection and graceful degradation)."""

import json
import math

import numpy as np
import pytest

from repro.comm.inprocess import CollectiveOp, InProcessWorld
from repro.comm.topology import get_topology
from repro.core.features import RunFeatures
from repro.core.spec import ExperimentSpec, SpecError
from repro.core.trainer import TrainerConfig
from repro.faults import (FAULT_MODELS, FaultInjector, FaultSpec, Membership,
                          fault_model_problems, resolve_fault_model)


# ---------------------------------------------------------------------- #
# membership mask
# ---------------------------------------------------------------------- #
def fault_problems(spec: FaultSpec, **config) -> list:
    return spec.problems(RunFeatures.of(TrainerConfig(faults=spec, **config)))


class TestMembership:
    def test_starts_all_alive(self):
        m = Membership(4)
        assert m.all_alive
        assert m.num_alive == 4
        assert m.alive_ranks().tolist() == [0, 1, 2, 3]
        assert m.dead_ranks().tolist() == []

    def test_transitions(self):
        m = Membership(4)
        m.set_alive(2, False)
        assert not m.all_alive
        assert not m.is_alive(2)
        assert m.alive_ranks().tolist() == [0, 1, 3]
        assert m.dead_ranks().tolist() == [2]
        m.set_alive(2, True)
        assert m.all_alive

    def test_rank_sets_are_read_only_index_arrays_computed_per_transition(self):
        m = Membership(4)
        m.set_alive(1, False)
        alive, dead = m.alive_ranks(), m.dead_ranks()
        assert m.alive_ranks() is alive and m.dead_ranks() is dead
        assert not (alive.flags.writeable or dead.flags.writeable
                    or m.alive.flags.writeable)
        G = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(G[alive], G[[0, 2, 3]])
        m.set_alive(1, False)                       # no transition: same sets
        assert m.alive_ranks() is alive
        m.set_alive(1, True)
        assert m.alive_ranks().tolist() == [0, 1, 2, 3] and m.all_alive
        assert m.num_alive == 4 and not m.dead_ranks().size

    def test_out_of_range_rank_rejected(self):
        m = Membership(2)
        with pytest.raises(ValueError, match="out of range"):
            m.set_alive(2, False)

    def test_state_round_trip(self):
        m = Membership(4)
        m.set_alive(1, False)
        m.set_alive(3, False)
        fresh = Membership(4)
        fresh.load_state_arrays(m.state_arrays())
        assert fresh.alive_ranks().tolist() == [0, 2]

    def test_state_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="world_size"):
            Membership(4).load_state_arrays(Membership(2).state_arrays())


# ---------------------------------------------------------------------- #
# fault schedules
# ---------------------------------------------------------------------- #
class TestCrashStop:
    def test_listed_ranks_die_at_at_s_forever(self):
        model = FAULT_MODELS.create("crash_stop", ranks=[1, 3], at_s=2.0)
        model.bind(4, seed=0)
        assert model.down_interval(1, 1.9) is None
        assert model.down_interval(1, 2.0) == (2.0, math.inf)
        assert model.down_interval(3, 100.0) == (2.0, math.inf)
        # unlisted ranks never fail
        assert model.down_interval(0, 5.0) is None
        assert model.down_interval(2, 5.0) is None

    def test_default_ranks_is_last_rank(self):
        model = FAULT_MODELS.create("crash_stop", at_s=0.5)
        model.bind(4, seed=0)
        assert model.down_interval(3, 1.0) == (0.5, math.inf)
        assert all(model.down_interval(r, 1.0) is None for r in range(3))

    def test_out_of_range_rank_rejected_at_bind(self):
        model = FAULT_MODELS.create("crash_stop", ranks=[5])
        with pytest.raises(ValueError, match="out of range"):
            model.bind(4, seed=0)

    def test_negative_at_s_rejected(self):
        with pytest.raises(ValueError, match="at_s must be >= 0"):
            FAULT_MODELS.create("crash_stop", at_s=-1.0)


class TestTransientBlackout:
    GRID = [k * 0.05 for k in range(200)]  # 10 simulated seconds

    def test_regeneration_is_deterministic(self):
        # A second instance (same seed) must reproduce the exact timeline —
        # the property checkpoint resume relies on: no RNG state is saved,
        # the memoized schedule is simply regenerated.
        a = FAULT_MODELS.create("transient_blackout",
                                mean_down_s=0.2, mean_up_s=0.5)
        b = FAULT_MODELS.create("transient_blackout",
                                mean_down_s=0.2, mean_up_s=0.5)
        a.bind(4, seed=7)
        b.bind(4, seed=7)
        for t in self.GRID:
            for rank in range(4):
                assert a.down_interval(rank, t) == b.down_interval(rank, t)

    def test_per_rank_streams_are_world_size_invariant(self):
        # Rank r's timeline is a pure function of (seed, r): the same
        # --seed-faults reproduces it across world sizes 2, 4 and 8.
        models = {}
        for world_size in (2, 4, 8):
            model = FAULT_MODELS.create("transient_blackout",
                                        mean_down_s=0.2, mean_up_s=0.5)
            model.bind(world_size, seed=11)
            models[world_size] = model
        for t in self.GRID:
            for rank in (0, 1):
                intervals = {models[p].down_interval(rank, t)
                             for p in (2, 4, 8)}
                assert len(intervals) == 1

    def test_interval_boundaries(self):
        # Convention: down on [start, end) — the rank is back up at exactly
        # t = end, which is when the rejoin catch-up runs.
        model = FAULT_MODELS.create("transient_blackout",
                                    mean_down_s=0.3, mean_up_s=0.3)
        model.bind(1, seed=3)
        interval = None
        t = 0.0
        while interval is None:
            t += 0.01
            interval = model.down_interval(0, t)
        start, end = interval
        assert start <= t < end
        assert model.down_interval(0, start) == interval
        assert model.down_interval(0, end) != interval

    def test_ranks_subset(self):
        model = FAULT_MODELS.create("transient_blackout", mean_down_s=0.1,
                                    mean_up_s=0.1, ranks=[0])
        model.bind(4, seed=0)
        assert any(model.down_interval(0, t) is not None for t in self.GRID)
        assert all(model.down_interval(1, t) is None for t in self.GRID)

    def test_nonpositive_means_rejected(self):
        with pytest.raises(ValueError, match="mean_down_s must be > 0"):
            FAULT_MODELS.create("transient_blackout", mean_down_s=0.0)
        with pytest.raises(ValueError, match="mean_up_s must be > 0"):
            FAULT_MODELS.create("transient_blackout", mean_up_s=-2)


class TestMessageLoss:
    def test_draws_are_deterministic_and_stateless(self):
        a = FAULT_MODELS.create("message_loss", p=0.3)
        b = FAULT_MODELS.create("message_loss", p=0.3)
        a.bind(4, seed=5)
        b.bind(4, seed=5)
        draws = [a.message_dropped(1, i) for i in range(200)]
        # Query order does not matter (pure in (seed, rank, index)).
        assert [b.message_dropped(1, i) for i in reversed(range(200))] \
            == draws[::-1]

    def test_loss_rate_matches_p(self):
        model = FAULT_MODELS.create("message_loss", p=0.4)
        model.bind(2, seed=9)
        dropped = sum(model.message_dropped(0, i) for i in range(2000))
        assert 0.3 < dropped / 2000 < 0.5

    def test_p_zero_never_drops(self):
        model = FAULT_MODELS.create("message_loss", p=0.0)
        model.bind(2, seed=0)
        assert not any(model.message_dropped(0, i) for i in range(100))

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\)"):
            FAULT_MODELS.create("message_loss", p=1.0)


class TestSlowNode:
    def test_stalls_are_timing_only_and_deterministic(self):
        model = FAULT_MODELS.create("slow_node", drop_prob=0.5,
                                    downtime_s=0.25)
        model.bind(2, seed=4)
        assert not model.affects_membership
        assert not model.affects_messages
        assert model.affects_timing
        stalls = [model.extra_stall(0, i) for i in range(100)]
        assert set(stalls) == {0.0, 0.25}
        assert stalls == [model.extra_stall(0, i) for i in range(100)]

    def test_unaffected_ranks_never_stall(self):
        model = FAULT_MODELS.create("slow_node", drop_prob=0.9,
                                    downtime_s=0.25, ranks=[1])
        model.bind(2, seed=4)
        assert all(model.extra_stall(0, i) == 0.0 for i in range(50))


class TestResolveFaultModel:
    def test_none_forms(self):
        assert resolve_fault_model(None) is None
        assert resolve_fault_model("none") is None
        assert resolve_fault_model({"name": "none"}) is None

    def test_name_and_dict_and_instance(self):
        assert resolve_fault_model("crash_stop").name == "crash_stop"
        model = resolve_fault_model({"name": "message_loss", "p": 0.2})
        assert model.p == 0.2
        assert resolve_fault_model(model) is model

    def test_errors(self):
        with pytest.raises(ValueError, match="'none' takes no arguments"):
            resolve_fault_model({"name": "none", "p": 0.5})
        with pytest.raises(ValueError, match="requires a 'name' key"):
            resolve_fault_model({"p": 0.5})
        assert fault_model_problems({"name": "warp"})
        assert fault_model_problems(None) == []


# ---------------------------------------------------------------------- #
# membership-aware collectives
# ---------------------------------------------------------------------- #
def degraded_world(world_size: int, dead) -> InProcessWorld:
    world = InProcessWorld(world_size)
    world.membership = Membership(world_size)
    for rank in dead:
        world.membership.set_alive(rank, False)
    return world


class TestMembershipCollectives:
    def test_allreduce_mean_renormalizes_over_survivors(self):
        world = degraded_world(4, dead=[3])
        buffers = [np.full(3, float(r), dtype=np.float64) for r in range(4)]
        results = world.allreduce(buffers, op=CollectiveOp.MEAN)
        for rank in (0, 1, 2):
            np.testing.assert_allclose(results[rank], 1.0)  # (0+1+2)/3
        # The dead rank is excluded from the mean and gets its own
        # contribution back untouched.
        np.testing.assert_array_equal(results[3], buffers[3])

    def test_allgather_skips_dead_contributions(self):
        world = degraded_world(4, dead=[1])
        buffers = [np.full(2, float(r)) for r in range(4)]
        gathered = world.allgather(buffers)
        assert gathered[1] == []
        for rank in (0, 2, 3):
            assert len(gathered[rank]) == 3
            np.testing.assert_array_equal(np.stack(gathered[rank])[:, 0],
                                          [0.0, 2.0, 3.0])

    def test_all_dead_collective_raises(self):
        world = degraded_world(2, dead=[0, 1])
        with pytest.raises(RuntimeError, match="every rank dead"):
            world.allreduce([np.zeros(2), np.zeros(2)])

    def test_neighbor_exchange_reroutes_ring(self):
        world = degraded_world(4, dead=[1])
        buffers = [np.full(2, float(r)) for r in range(4)]
        gathered = world.neighbor_exchange(buffers, get_topology("ring"))
        assert gathered[1] == []
        # Rank 0's degraded closed neighbourhood walks past dead rank 1.
        np.testing.assert_array_equal(np.stack(gathered[0])[:, 0],
                                      [0.0, 2.0, 3.0])

    def test_healthy_membership_is_the_fast_path(self):
        world = InProcessWorld(2)
        world.membership = Membership(2)
        buffers = [np.ones(2), np.full(2, 3.0)]
        results = world.allreduce(buffers, op=CollectiveOp.MEAN)
        np.testing.assert_allclose(results[0], 2.0)
        np.testing.assert_allclose(results[1], 2.0)


# ---------------------------------------------------------------------- #
# the injector: counters, pricing, checkpoint round-trip
# ---------------------------------------------------------------------- #
class TestFaultInjector:
    def test_message_counters_advance_draw_indices(self):
        model = FAULT_MODELS.create("message_loss", p=0.5)
        injector = FaultInjector(model, world_size=2, seed=3)
        draws = [injector.message_dropped(0) for _ in range(50)]
        assert injector._message_counters[0] == 50
        assert injector._message_counters[1] == 0
        assert injector.report.dropped_messages == sum(draws)
        # The same draws come straight from the stateless model.
        assert draws == [model.message_dropped(0, i) for i in range(50)]

    def test_discovery_penalty_prices_timeout_plus_backoff_ladder(self):
        injector = FaultInjector(FAULT_MODELS.create("crash_stop"),
                                 world_size=2, seed=0, barrier_timeout_s=0.1,
                                 max_retries=3, backoff_base_s=0.05)
        penalty = injector.discovery_penalty_s()
        assert penalty == pytest.approx(0.1 + 0.05 * (1 + 2 + 4))
        assert injector.report.barrier_timeouts == 1
        assert injector.report.retries == 3

    def test_retransmit_penalty_is_bounded(self):
        # p close to 1: every attempt is lost, yet the ladder is bounded by
        # max_retries and the final attempt is forced through.
        model = FAULT_MODELS.create("message_loss", p=0.999)
        injector = FaultInjector(model, world_size=1, seed=0,
                                 max_retries=2, backoff_base_s=0.05)
        penalty = injector.retransmit_penalty_s(0)
        assert penalty == pytest.approx(0.05 * (1 + 2))
        assert injector.report.retries == 2

    def test_retransmit_penalty_zero_without_message_faults(self):
        injector = FaultInjector(FAULT_MODELS.create("crash_stop"),
                                 world_size=2, seed=0)
        assert injector.retransmit_penalty_s(0) == 0.0

    def test_state_round_trip_preserves_draw_positions(self):
        model = FAULT_MODELS.create("message_loss", p=0.5)
        injector = FaultInjector(model, world_size=2, seed=3)
        for _ in range(17):
            injector.message_dropped(0)
        injector.membership.set_alive(1, False)
        injector.report.record_down(1)
        injector.report.record_downtime(1, 0.75)
        injector.needs_catchup[1] = True
        state = injector.state_arrays()

        fresh = FaultInjector(FAULT_MODELS.create("message_loss", p=0.5),
                              world_size=2, seed=3)
        fresh.load_state_arrays(state)
        assert fresh.membership.dead_ranks().tolist() == [1]
        assert fresh.needs_catchup[1]
        assert fresh.report.as_dict() == injector.report.as_dict()
        # Future draws continue the original sequence, not restart it.
        expected = [model.message_dropped(0, i) for i in range(17, 27)]
        assert [fresh.message_dropped(0) for _ in range(10)] == expected


# ---------------------------------------------------------------------- #
# the declarative faults section
# ---------------------------------------------------------------------- #
class TestFaultSpec:
    def test_resolve_forms(self):
        assert FaultSpec.resolve(None).model == "none"
        assert not FaultSpec.resolve(None).active
        assert FaultSpec.resolve("crash_stop").model == "crash_stop"
        spec = FaultSpec.resolve({"model": "message_loss",
                                  "model_kwargs": {"p": 0.1}})
        assert spec.active and spec.model_kwargs == {"p": 0.1}
        assert FaultSpec.resolve(spec) is spec

    def test_json_round_trip(self):
        spec = FaultSpec(model="transient_blackout",
                         model_kwargs={"mean_down_s": 0.2, "mean_up_s": 0.8},
                         barrier_timeout_s=0.2, max_retries=5,
                         backoff_base_s=0.01)
        assert FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) \
            == spec

    def test_unknown_field_rejected_with_suggestion(self):
        with pytest.raises(ValueError, match="unknown faults field"):
            FaultSpec.from_dict({"model": "crash_stop",
                                 "barier_timeout_s": 0.1})

    def test_merged_with_resets_kwargs_on_model_switch(self):
        spec = FaultSpec(model="transient_blackout",
                         model_kwargs={"mean_down_s": 0.2})
        merged = spec.merged_with({"model": "crash_stop"})
        assert merged["model_kwargs"] == {}
        kept = spec.merged_with({"model": "transient_blackout"})
        assert kept["model_kwargs"] == {"mean_down_s": 0.2}

    def test_problems_pins_construction_error_text(self):
        spec = FaultSpec(model="transient_blackout",
                         model_kwargs={"mean_down_s": -1})
        assert fault_problems(spec, world_size=2) == [
            "fault model 'transient_blackout' cannot be constructed with "
            "{'mean_down_s': -1}: mean_down_s must be > 0, got -1.0"]

    def test_problems_catches_bad_policy_fields(self):
        spec = FaultSpec(model="crash_stop", barrier_timeout_s=-1,
                         max_retries=-2, backoff_base_s="soon")
        problems = "\n".join(fault_problems(spec))
        assert "barrier_timeout_s must be a number >= 0" in problems
        assert "max_retries must be an integer >= 0" in problems
        assert "backoff_base_s must be a number >= 0" in problems

    def test_problems_checks_ranks_against_world_size(self):
        spec = FaultSpec(model="crash_stop", model_kwargs={"ranks": [7]})
        assert fault_problems(spec, world_size=8) == []
        assert any("out of range" in p
                   for p in fault_problems(spec, world_size=4))

    def test_inactive_model_kwargs_rejected(self):
        spec = FaultSpec(model="none", model_kwargs={"p": 0.1})
        assert any("fault model is 'none'" in p for p in fault_problems(spec))

    def test_build_returns_none_when_inactive(self):
        assert FaultSpec().build(world_size=4) is None

    def test_build_bridge_forces_injector_without_model(self):
        injector = FaultSpec().build(world_size=4, bridge_compute_stalls=True)
        assert injector is not None
        assert injector.model is None
        assert injector.bridge_compute_stalls

    def test_build_binds_model_and_policy(self):
        spec = FaultSpec(model="crash_stop", model_kwargs={"at_s": 1.0},
                         barrier_timeout_s=0.3, max_retries=2,
                         backoff_base_s=0.02)
        injector = spec.build(world_size=4, seed=9)
        assert injector.model.world_size == 4
        assert injector.model.seed == 9
        assert injector.barrier_timeout_s == 0.3
        assert injector.max_retries == 2
        assert injector.report.model == "crash_stop"


class TestExperimentSpecFaults:
    def test_spec_carries_and_round_trips_faults(self):
        spec = ExperimentSpec(model="fnn3", world_size=4,
                              faults={"model": "message_loss",
                                      "model_kwargs": {"p": 0.1}},
                              fault_seed=3).validate()
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.fault_seed == 3
        assert FaultSpec.resolve(clone.faults) \
            == FaultSpec.resolve(spec.faults)

    def test_validate_reports_exact_fault_error(self):
        spec = ExperimentSpec(model="fnn3", world_size=2,
                              faults={"model": "transient_blackout",
                                      "model_kwargs": {"mean_down_s": -1}})
        with pytest.raises(SpecError) as excinfo:
            spec.validate()
        assert ("fault model 'transient_blackout' cannot be constructed with "
                "{'mean_down_s': -1}: mean_down_s must be > 0, got -1.0"
                ) in str(excinfo.value)

    def test_validate_rejects_bad_fault_seed_and_type(self):
        with pytest.raises(SpecError, match="fault_seed"):
            ExperimentSpec(model="fnn3", fault_seed=1.5).validate()
        with pytest.raises(SpecError):
            ExperimentSpec(model="fnn3", faults=3.14).validate()

    def test_trainer_config_inherits_faults(self):
        spec = ExperimentSpec(model="fnn3", world_size=2,
                              faults="crash_stop", fault_seed=5)
        config = spec.to_trainer_config()
        assert FaultSpec.resolve(config.faults).model == "crash_stop"
        assert config.fault_seed == 5

    def test_registry_is_exposed(self):
        assert set(FAULT_MODELS.list()) >= {"crash_stop",
                                             "transient_blackout",
                                             "message_loss", "slow_node"}
