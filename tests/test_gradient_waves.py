"""The async engine's gradient waves equal the per-event reference bit for bit.

:class:`~repro.sim.engine.EventSchedule` computes every stale rank's next
gradient in one call of the trainer's executor and keeps each pending until
its own event; ``tests/reference_engine.py`` steps one rank per event at
P = 1, as the engine did before waves.  Over the strategy × model × fault
grid, a run on each must end with the same worker rows, server / center
vector, module buffers, per-event losses, stream positions and
:class:`~repro.sim.report.SimReport`.
"""

import functools

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainerConfig
from repro.core import trainer as trainer_module
from repro.core.callbacks import Callback
from repro.utils.rng import generator_state, set_generator_state
from tests.reference_engine import reference_trainer

STRATEGIES = {
    "async_ps": {"strategy": "async_ps",
                 "strategy_kwargs": {"staleness_penalty": 0.9}},
    "easgd": {"strategy": "easgd", "period": 2},
}

MODELS = {
    "fnn3": dict(model="fnn3", algorithm="dense", world_size=4, batch_size=8,
                 num_train=128, num_test=32),
    # BatchNorm running statistics: re-run ranks get theirs put back.
    "resnet20": dict(model="resnet20", algorithm="dense", world_size=4,
                     batch_size=4, num_train=64, num_test=16),
    # 1200 tokens over 64 columns give two full BPTT windows and a shorter
    # last one per pass: carried state, stream restarts and waves whose
    # ranks hold windows of different lengths all happen inside the run.
    "lstm_ptb": dict(model="lstm_ptb", algorithm="a2sgd", world_size=4,
                     batch_size=None, num_train=1200, num_test=160, seq_len=8),
    # 64 columns over 3 ranks (22 / 21 / 21): one P = 1 executor per rank.
    "lstm_ptb-ragged": dict(model="lstm_ptb", algorithm="a2sgd", world_size=3,
                            batch_size=None, num_train=1200, num_test=160,
                            seq_len=8),
}

FAULTS = {
    "healthy": None,
    "blackout": {"model": "transient_blackout",
                 "model_kwargs": {"mean_down_s": 0.02, "mean_up_s": 0.03}},
    "crash": {"model": "crash_stop", "model_kwargs": {"ranks": [1], "at_s": 0.02}},
    "message_loss": {"model": "message_loss", "model_kwargs": {"p": 0.3}},
}


@pytest.fixture(autouse=True, scope="module")
def shared_datasets():
    """Both sides of a cell train on one dataset; build each once."""
    original = trainer_module.get_dataset
    trainer_module.get_dataset = functools.lru_cache(maxsize=None)(original)
    yield
    trainer_module.get_dataset = original


class EventLosses(Callback):
    """Every event's loss, in event order."""

    def __init__(self):
        self.losses = []

    def on_iteration_end(self, state) -> None:
        self.losses.append(state.loss)


def stream_positions(trainer) -> list:
    """Per rank, the saved ``(cursor, pass words)`` of the pass holding its
    next batch.  A pass that ran out is the next pass at cursor 0: a wave may
    have drawn that pass's first batch ahead, where the per-event reference
    has not drawn it yet."""
    arrays = trainer.simulator.schedule.state_arrays()
    positions = []
    for rank, stream in enumerate(trainer._streams()):
        cursor = int(arrays["stream_cursor"][rank])
        words = arrays["stream_words"][rank] if "stream_words" in arrays else None
        # Batches per pass; an LM pass ends on a shorter window.
        size = len(stream) if words is not None \
            else -(-(len(stream.data) - 1) // stream.seq_len)
        if cursor == size:
            cursor = 0
            if words is not None:
                rng = np.random.default_rng()
                set_generator_state(rng, words)
                rng.permutation(len(stream.dataset))
                words = generator_state(rng)
        positions.append((cursor, None if words is None else words.tolist()))
    return positions


def run(build, model: str, strategy: str, fault: str):
    config = TrainerConfig(**MODELS[model], preset="tiny", epochs=2,
                           max_iterations_per_epoch=2, seed=0,
                           sync=STRATEGIES[strategy], faults=FAULTS[fault],
                           fault_seed=9, clock_seed=3,
                           compute_model={"name": "lognormal", "sigma": 0.5})
    events = EventLosses()
    trainer = build(config, callbacks=[events])
    trainer.train()
    return trainer, events.losses


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_waves_equal_the_per_event_reference(strategy, model, fault):
    waves, wave_losses = run(DistributedTrainer, model, strategy, fault)
    reference, reference_losses = run(reference_trainer, model, strategy, fault)

    assert wave_losses == reference_losses
    assert np.array_equal(waves._worker_rows, reference._worker_rows)
    assert np.array_equal(waves.flat_world.param_matrix,
                          reference.flat_world.param_matrix)
    consensus = waves.sync_strategy.consensus_vector()
    assert np.array_equal(consensus, reference.sync_strategy.consensus_vector())
    for mine, theirs in zip(waves.replicas, reference.replicas):
        for (name, buffer), (_, expected) in zip(mine.named_buffers(),
                                                 theirs.named_buffers()):
            assert np.array_equal(buffer, expected), name
    # Each rank's saved stream stands where its consumed batches left it (a
    # batch a wave drew ahead goes back to the stream).
    assert stream_positions(waves) == stream_positions(reference)
    assert waves.sim_report.as_dict() == reference.sim_report.as_dict()
    # Evaluation (BatchNorm running statistics included) saw the same state.
    assert waves.metrics.train_loss == reference.metrics.train_loss
    assert waves.metrics.metric == reference.metrics.metric
    if fault == "healthy":
        return
    # The fault cells exercise what they name.
    report = waves.fault_injector.report
    if fault == "message_loss":
        assert report.dropped_messages > 0
    else:
        assert sum(report.down_transitions_per_rank) > 0
    if fault == "blackout":
        assert sum(report.rejoins_per_rank) > 0


def test_a_wave_computes_several_ranks_in_one_call():
    trainer, losses = run(DistributedTrainer, "fnn3", "async_ps", "healthy")
    stats = trainer.executor.tape_stats
    calls = stats["recorded"] + stats["replays"] + stats["eager"]
    assert 0 < calls < len(losses) <= calls * trainer.config.world_size


@pytest.mark.parametrize("model", ["lstm_ptb", "lstm_ptb-ragged"])
def test_language_model_cells_reach_the_short_last_window(model):
    trainer, _ = run(DistributedTrainer, model, "async_ps", "healthy")
    lengths = [len(inputs) for inputs, _ in trainer.lm_shards[0].batches()]
    assert lengths == [8, 8, 1]
    assert max(trainer.sim_report.steps_per_rank) > len(lengths)
