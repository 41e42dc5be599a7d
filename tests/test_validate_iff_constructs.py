"""``validate()`` accepts a spec if and only if the trainer can run it.

One table of one-field-off tiny specs (plus every ``examples/spec_*.json``)
driven through both entry points: ``ExperimentSpec.validate()`` and
``DistributedTrainer(spec.to_trainer_config())``.  Both read the same
:class:`repro.core.features.RunFeatures` record, so on a rejected row the
trainer's ``ValueError`` must contain validate's first problem verbatim, and
on an accepted row the trainer must construct, train and close.

Two known exceptions have no row here: data sizing (``batch_size`` /
``num_train`` too large or small for the dataset — see ROADMAP.md), and a
registered custom model with a layer type lacking ``forward_batched``, which
validates while the trainer's constructor raises the executor builder's
``ValueError`` naming those types.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.comm.inprocess import InProcessWorld
from repro.comm.topology import TOPOLOGIES
from repro.compress.registry import COMPRESSORS
from repro.core.features import RunFeatures
from repro.core.spec import ExperimentSpec, SpecError
from repro.core.trainer import DistributedTrainer, TrainerConfig
from repro.sync import AGGREGATORS, SYNC_STRATEGIES, SyncSpec

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples")
                  .glob("spec_*.json"))


def tiny(**overrides) -> ExperimentSpec:
    fields = dict(model="fnn3", preset="tiny", algorithm="a2sgd", world_size=2,
                  epochs=1, max_iterations_per_epoch=2, batch_size=8,
                  num_train=128, num_test=32)
    fields.update(overrides)
    return ExperimentSpec(**fields)


#: (id, spec, texts validate must emit byte for byte — empty = accepted).
ROWS = [
    # validate used to accept these and the trainer died.
    ("momentum_negative", tiny(momentum=-1.0),
     ["optimizer 'sgd' cannot be constructed with {'lr': 0.01, 'momentum': "
      "-1.0, 'weight_decay': 0.0}: momentum must be non-negative"]),
    ("base_lr_zero", tiny(base_lr=0.0), ["learning rate must be positive"]),
    ("base_lr_string", tiny(base_lr="x"), ["optimizer 'sgd' cannot be constructed"]),
    ("weight_decay_string", tiny(weight_decay="a"),
     ["optimizer 'sgd' cannot be constructed"]),
    ("compressor_kwargs_unknown", tiny(compressor_kwargs={"nope": 1}),
     ["compressor 'a2sgd' cannot be constructed with {'nope': 1}: "]),
    ("network_dict_values", tiny(network={"latency_s": -1, "bandwidth_Bps": 0}),
     ["cannot be constructed with {'latency_s': -1, 'bandwidth_Bps': 0}: "
      "latency must be >= 0 and bandwidth > 0"]),
    # validate used to reject these and the trainer ran.
    ("period_on_allreduce", tiny(sync={"strategy": "allreduce", "period": 3}),
     ["period=3 is only used by period-based strategies (local_sgd); "
      "strategy 'allreduce' synchronizes on its own schedule"]),
    ("topology_on_allreduce", tiny(sync={"strategy": "allreduce", "topology": "star"}),
     ["topology='star' is only used by graph-based strategies (gossip); "
      "strategy 'allreduce' does not exchange over a graph"]),
    ("eval_every_zero", tiny(eval_every=0),
     ["eval_every must be an integer >= 1, got 0"]),
    # both layers already agreed on these; pinned so they keep agreeing.
    ("robust_topk", tiny(algorithm="topk", sync={"aggregator": "trimmed_mean"}),
     ["allreduce-kind compressors only"]),
    ("corrupt_oob", tiny(sync={"corrupt_ranks": [9]}),
     ["corrupt_ranks [9] out of range for world_size 2"]),
    ("param_comp_on_allreduce", tiny(sync={"parameter_compression": "topk"}),
     ["never exchanges parameters"]),
    ("async_topk", tiny(algorithm="topk", sync={"strategy": "async_ps"}),
     ["rank-locally"]),
    ("mp_workers_exceed_world", tiny(backend="multiprocessing",
                                     backend_kwargs={"num_workers": 8}),
     ["backend num_workers (8) cannot exceed world_size (2)"]),
    ("crash_stop_rank_oob", tiny(faults={"model": "crash_stop",
                                         "model_kwargs": {"ranks": [7]}}),
     ["out of range"]),
    ("straggler_slowdown_negative",
     tiny(compute_model={"name": "straggler", "slowdown": -1}),
     ["compute_model: slowdown must be > 0, got -1.0"]),
    ("straggler_rank_oob",
     tiny(compute_model={"name": "straggler", "straggler_ranks": [9]}),
     ["compute_model: straggler rank 9 out of range for world_size 2"]),
    ("lstm_p3_seq_len_2", tiny(model="lstm_ptb", world_size=3, seq_len=2,
                               batch_size=None, num_train=None, num_test=None), []),
    ("num_test_1", tiny(num_test=1), []),
    # the six bad specs CI used to write as heredocs, with their pinned texts.
    ("ci_malformed_faults",
     ExperimentSpec(model="fnn3", world_size=2,
                    faults={"model": "transient_blackout",
                            "model_kwargs": {"mean_down_s": -1}}),
     ["fault model 'transient_blackout' cannot be constructed with "
      "{'mean_down_s': -1}: mean_down_s must be > 0, got -1.0"]),
    ("ci_staleness_bound",
     ExperimentSpec(model="fnn3", world_size=2, compute_model={"name": "constant"},
                    sync={"strategy": "async_ps",
                          "strategy_kwargs": {"staleness_bound": -1}}),
     ["staleness_bound must be an integer >= 0"]),
    ("ci_cohort_exceeds_population",
     ExperimentSpec(model="fnn3", world_size=8,
                    sync={"strategy": "fedavg", "period": 2},
                    clients={"num_clients": 4, "cohort_size": 8}),
     ["clients: cohort_size 8 exceeds num_clients 4; the sampled cohort "
      "cannot be larger than the client population"]),
    ("ci_unknown_parameter_compression",
     ExperimentSpec(model="fnn3", world_size=2,
                    sync={"strategy": "gossip", "topology": "ring",
                          "parameter_compression": "warp"}),
     ["parameter_compression", "warp"]),
    ("ci_broken_sync",
     ExperimentSpec(model="fnn3", world_size=2,
                    sync={"strategy": "warp", "period": 0, "corrupt_ranks": [9]}),
     ["unknown sync strategy 'warp'", "sync period must be an integer >= 1",
      "corrupt_ranks [9] out of range for world_size 2"]),
    ("ci_multiprocessing_async",
     ExperimentSpec(model="fnn3", world_size=2, backend="multiprocessing",
                    compute_model={"name": "constant"},
                    sync={"strategy": "async_ps"}),
     ["backend 'multiprocessing' cannot run sync strategy 'async_ps': the "
      "event-driven virtual clock executes one rank at a time; use backend "
      "'inprocess'"]),
] + [
    (path.stem, ExperimentSpec.from_file(path).replace(epochs=1,
                                                       max_iterations_per_epoch=2), [])
    for path in EXAMPLES
]


@pytest.mark.parametrize("spec,texts", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_validate_accepts_iff_trainer_runs(spec, texts):
    if not texts:
        spec.validate()
        with DistributedTrainer(spec.to_trainer_config()) as trainer:
            trainer.train()
        return
    with pytest.raises(SpecError) as rejected:
        spec.validate()
    listing = str(rejected.value)
    for text in texts:
        assert text in listing
    with pytest.raises(ValueError) as died:
        DistributedTrainer(spec.to_trainer_config())
    assert rejected.value.problems[0] in str(died.value)


def test_every_example_spec_has_a_row():
    assert len(EXAMPLES) >= 11 and len(ROWS) >= 35


#: The six cross-feature rules owned by strategy classes: (sync section,
#: gradient compressor, substring of the one message).
STRATEGY_RULES = [
    ("robust_x_allgather", dict(aggregator="trimmed_mean"), "topk",
     "needs per-rank payloads"),
    ("async_x_robust", dict(strategy="easgd", aggregator="coordinate_median"),
     "dense", "use the 'mean' aggregator"),
    ("async_ps_x_allgather", dict(strategy="async_ps"), "topk", "rank-locally"),
    ("fedavg_topology", dict(strategy="fedavg", period=2, topology="star"),
     "dense", "accepts the two-level"),
    ("fedavg_hierarchical_x_robust",
     dict(strategy="fedavg", period=2, topology="hierarchical",
          aggregator="coordinate_median"), "dense", "count-weights partial sums"),
    ("parameter_compression_unused", dict(parameter_compression="topk"),
     "dense", "never exchanges parameters"),
]


@pytest.mark.parametrize("sync,algorithm,text",
                         [rule[1:] for rule in STRATEGY_RULES],
                         ids=[rule[0] for rule in STRATEGY_RULES])
def test_bind_raises_the_string_problems_lists(sync, algorithm, text):
    """Each rule has one wording: ``bind`` raises what ``problems`` lists."""
    spec = SyncSpec(**sync)
    features = RunFeatures.of(TrainerConfig(world_size=2, algorithm=algorithm,
                                            sync=spec))
    listed = [p for p in spec.problems(features) if text in p]
    assert len(listed) == 1
    # Hand-bound, the way a test or third-party driver would: no SyncSpec.
    compressors = [COMPRESSORS.create(algorithm) for _ in range(2)]
    topology = TOPOLOGIES.create(spec.topology) if spec.topology != "ring" else None
    parameter_compressors = [COMPRESSORS.create(spec.parameter_compression)
                             for _ in range(2)] if spec.compresses_parameters else None
    with pytest.raises(ValueError) as bound:
        SYNC_STRATEGIES.create(spec.strategy).bind(
            InProcessWorld(2), compressors, AGGREGATORS.create(spec.aggregator),
            topology=topology, period=spec.period,
            parameter_compressors=parameter_compressors)
    assert str(bound.value) == listed[0]
