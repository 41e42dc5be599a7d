"""Every generator a run owns is in its checkpoint, by its state.

The audit walks the trainer's object graph (attributes, lists, tuples,
dicts) for every ``np.random.Generator``.  A short run is trained and saved,
the file is loaded into a fresh trainer, and both trainers must hold
generators at the same paths in the same ``bit_generator.state``: a
generator the file missed would restart its stream on resume.
"""

from collections import deque

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainerConfig, load_checkpoint, save_checkpoint
from repro.faults.models import TransientBlackoutFaultModel
from repro.federated.population import ClientPopulation

#: Attributes holding generators that are caches of a pure function of their
#: keys, not run state: each blackout schedule is a function of
#: (fault_seed, rank, t), regenerated on demand after a load; each client's
#: batch stream jumps to a position fixed by the iteration before every
#: draw, so a batch is a function of (seed, client, iteration).
KEYED = {(TransientBlackoutFaultModel, "_schedules"), (ClientPopulation, "_streams")}

_LEAVES = (np.ndarray, str, bytes, int, float, complex, bool, type(None))


def generators(root) -> dict:
    """``path -> bit_generator.state`` for every generator reachable from
    ``root`` through attributes of this package's objects and containers,
    each under its shortest path (breadth first, so the name does not depend
    on which other objects also reach it)."""
    found = {}
    seen = set()
    queue = deque([("trainer", root)])
    while queue:
        path, obj = queue.popleft()
        if isinstance(obj, _LEAVES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.random.Generator):
            found[path] = obj.bit_generator.state
            continue
        if isinstance(obj, dict):
            children = [(f"{path}[{key!r}]", value) for key, value in obj.items()]
        elif isinstance(obj, (list, tuple)):
            children = [(f"{path}[{index}]", value) for index, value in enumerate(obj)]
        elif type(obj).__module__.startswith("repro."):
            names = list(getattr(obj, "__dict__", {}))
            names += [name for cls in type(obj).__mro__
                      for name in getattr(cls, "__slots__", ()) if hasattr(obj, name)]
            children = [(f"{path}.{name}", getattr(obj, name)) for name in names
                        if not any(isinstance(obj, cls) and name == attr
                                   for cls, attr in KEYED)]
        else:
            continue
        queue.extend(children)
    return found


BASE = dict(model="fnn3", preset="tiny", world_size=4, epochs=2, batch_size=8,
            max_iterations_per_epoch=3, num_train=256, num_test=32, seed=0,
            compute_model={"name": "lognormal", "sigma": 0.3}, clock_seed=5)

# async_ps pushes single-rank payloads, so it takes allreduce-kind
# compressors only; qsgd / terngrad / randk run on allreduce.
CELLS = {f"fnn3-{algorithm}-allreduce": dict(algorithm=algorithm)
         for algorithm in ("dense", "a2sgd", "qsgd", "terngrad", "randk")}
CELLS.update({f"fnn3-{algorithm}-async_ps": dict(algorithm=algorithm,
                                                 sync={"strategy": "async_ps"})
              for algorithm in ("dense", "a2sgd")})
CELLS.update({
    "lstm_ptb-a2sgd": dict(model="lstm_ptb", algorithm="a2sgd", batch_size=None,
                           num_train=800, num_test=160, seq_len=8),
    "fedavg-sampled-qsgd_codec": dict(
        algorithm="dense", max_iterations_per_epoch=4,
        sync={"strategy": "fedavg", "period": 2, "parameter_compression": "qsgd",
              "parameter_compression_kwargs": {"levels": 16, "bucket_size": 64}},
        clients={"num_clients": 8, "cohort_size": 4,
                 "sampler": "uniform_without_replacement", "sampler_seed": 3}),
    "transient_blackout": dict(
        algorithm="a2sgd", fault_seed=9,
        faults={"model": "transient_blackout",
                "model_kwargs": {"mean_down_s": 0.02, "mean_up_s": 0.03}}),
})


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_every_generator_resumes_at_its_state(cell, tmp_path):
    config = TrainerConfig(**{**BASE, **CELLS[cell]})
    with DistributedTrainer(config) as trained:
        trained.train()
        path = save_checkpoint(trained, tmp_path / "ckpt.npz")
        saved = generators(trained)
    with DistributedTrainer(config) as fresh:
        load_checkpoint(fresh, path)
        loaded = generators(fresh)
    assert sorted(loaded) == sorted(saved)
    assert saved, "the audit found no generator"
    for name, state in saved.items():
        assert loaded[name] == state, name


def test_the_audit_sees_the_run_owned_generators():
    """The walk reaches the compute model, the loaders, the compressors and
    the parameter codec's compressors — and skips the keyed blackout memo."""
    config = TrainerConfig(**{**BASE, **CELLS["transient_blackout"], "algorithm": "qsgd",
                              "sync": {"strategy": "local_sgd", "period": 2,
                                       "parameter_compression": "randk"}})
    with DistributedTrainer(config) as trainer:
        trainer.train()
        paths = generators(trainer)
    for expected in ("trainer.compressors[3].rng", "trainer.loaders[3].rng",
                     "trainer.simulator.compute_model._rngs[3]",
                     "trainer.sync_strategy.parameter_codec.compressors[3].rng"):
        assert expected in paths
    assert trainer.fault_injector.model._schedules
    assert not any("_schedules" in path for path in paths)


def test_each_rank_codec_rounds_with_its_own_keyed_stream():
    """Every rank's parameter-codec generator is keyed by the run seed and
    the rank: the states differ across ranks, and each moves with ``seed``."""

    def codec_states(seed):
        config = TrainerConfig(**{**BASE, "seed": seed, "algorithm": "dense",
                                  "sync": {"strategy": "local_sgd", "period": 2,
                                           "parameter_compression": "qsgd",
                                           "parameter_compression_kwargs":
                                               {"levels": 16, "bucket_size": 64}}})
        with DistributedTrainer(config) as trainer:
            return [compressor.rng.bit_generator.state["state"]
                    for compressor in trainer.sync_strategy.parameter_codec.compressors]

    states, reseeded = codec_states(0), codec_states(7)
    assert len(states) == BASE["world_size"]
    assert len({repr(state) for state in states}) == len(states)
    for state, other in zip(states, reseeded):
        assert state != other
