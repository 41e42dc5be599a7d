"""Pluggable trainer lifecycle: the Callback protocol and built-in callbacks.

The :class:`~repro.core.trainer.DistributedTrainer` no longer hard-codes
metrics collection, evaluation cadence or progress logging — each is a
:class:`Callback` observing a :class:`TrainState` view of the run.

Hook order per run::

    on_train_start
      on_epoch_start                 (once per epoch)
        on_iteration_start           (once per iteration)
        on_iteration_end
      on_epoch_end
    on_train_end

Callbacks run in list order: the trainer's defaults first
(evaluation -> metrics, so ``state.metric_value`` is populated before it is
recorded), then user callbacks in the order they were passed.

New per-worker or per-iteration behaviours — worker dropout, gradient-noise
injection, stragglers, early stopping — are written as callbacks and, when
they should be reachable from a declarative
:class:`~repro.core.spec.ExperimentSpec` or the CLI, registered on
``CALLBACKS``::

    @CALLBACKS.register("gradient_noise", description="inject Gaussian noise")
    class GradientNoise(Callback):
        def on_iteration_end(self, state):
            ...mutate state.replicas / state.flat_buffers...
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.registry import Registry
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.flat_buffer import WorldFlatBuffers
    from repro.core.metrics import TrainingMetrics
    from repro.core.timeline import IterationTimeline, SyncReport
    from repro.core.trainer import DistributedTrainer, TrainerConfig


@dataclass
class TrainState:
    """Mutable view of one training run, passed to every hook.

    Exposes the trainer's replicas and flat buffers so callbacks can observe
    *and* perturb the run (that is the point — worker dropout or noise
    injection are writes), plus per-iteration scalars the trainer refreshes
    before each hook.
    """

    trainer: "DistributedTrainer"
    epoch: int = 0
    #: Iteration index within the current epoch.
    iteration: int = 0
    #: Iterations completed since the start of training.
    global_iteration: int = 0
    #: Fractional epoch (drives the LR policy).
    epoch_progress: float = 0.0
    #: Mean worker loss of the last completed iteration.
    loss: float = math.nan
    #: Mean loss over the just-finished epoch (valid in ``on_epoch_end``).
    epoch_loss: float = math.nan
    #: Learning rate applied on the last iteration.
    lr: float = math.nan
    #: Synchronization report of the last iteration.
    report: Optional["SyncReport"] = None
    #: Evaluation result for the finishing epoch (set by EvaluationCallback).
    metric_value: float = math.nan
    stop_requested: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------ #
    # trainer views
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> "TrainerConfig":
        return self.trainer.config

    @property
    def replicas(self):
        return self.trainer.replicas

    @property
    def flat_buffers(self) -> "WorldFlatBuffers":
        """The trainer's (P, n) flat parameter/gradient world."""
        return self.trainer.flat_world

    @property
    def metrics(self) -> "TrainingMetrics":
        return self.trainer.metrics

    @property
    def timeline(self) -> "IterationTimeline":
        return self.trainer.timeline

    @property
    def world_size(self) -> int:
        return self.trainer.config.world_size

    @property
    def iterations_per_epoch(self) -> int:
        return self.trainer.iterations_per_epoch

    def request_stop(self) -> None:
        """Ask the trainer to stop after the current iteration/epoch."""
        self.stop_requested = True


class Callback:
    """Base class for trainer lifecycle plugins.  All hooks are optional."""

    def on_train_start(self, state: TrainState) -> None:
        """Called once, after the trainer is fully constructed."""

    def on_epoch_start(self, state: TrainState) -> None:
        """Called before the first iteration of every epoch."""

    def on_iteration_start(self, state: TrainState) -> None:
        """Called before each forward/backward + exchange + step."""

    def on_iteration_end(self, state: TrainState) -> None:
        """Called after the optimizer step; ``state.loss``/``report`` are fresh."""

    def on_epoch_end(self, state: TrainState) -> None:
        """Called after the last iteration of an epoch; ``state.epoch_loss`` is set."""

    def on_train_end(self, state: TrainState) -> None:
        """Called once, after the final dense synchronization of the replicas."""


class CallbackList(Callback):
    """Dispatches every hook to an ordered list of callbacks."""

    def __init__(self, callbacks: Iterable[Callback] = ()):
        self.callbacks: List[Callback] = list(callbacks)
        for callback in self.callbacks:
            if not isinstance(callback, Callback):
                raise TypeError(f"{callback!r} is not a Callback "
                                f"(got {type(callback).__name__})")

    def append(self, callback: Callback) -> None:
        self.callbacks.append(callback)

    def on_train_start(self, state: TrainState) -> None:
        for callback in self.callbacks:
            callback.on_train_start(state)

    def on_epoch_start(self, state: TrainState) -> None:
        for callback in self.callbacks:
            callback.on_epoch_start(state)

    def on_iteration_start(self, state: TrainState) -> None:
        for callback in self.callbacks:
            callback.on_iteration_start(state)

    def on_iteration_end(self, state: TrainState) -> None:
        for callback in self.callbacks:
            callback.on_iteration_end(state)

    def on_epoch_end(self, state: TrainState) -> None:
        for callback in self.callbacks:
            callback.on_epoch_end(state)

    def on_train_end(self, state: TrainState) -> None:
        for callback in self.callbacks:
            callback.on_train_end(state)


#: Registry of callbacks constructible by name (from specs / the CLI).
CALLBACKS = Registry("callback", expose="callbacks")


class EvaluationCallback(Callback):
    """Evaluates the consensus model on the configured epoch cadence.

    Runs every ``config.eval_every`` epochs and always on the last epoch;
    in-between epochs carry the previous metric value forward (NaN before
    the first evaluation), exactly as the pre-callback trainer did.
    """

    def on_epoch_end(self, state: TrainState) -> None:
        config = state.config
        should_eval = ((state.epoch + 1) % max(1, config.eval_every) == 0
                       or state.epoch == config.epochs - 1
                       or state.stop_requested)
        if should_eval:
            state.metric_value = state.trainer.evaluate()
        elif state.metrics.metric:
            state.metric_value = state.metrics.metric[-1]
        else:
            state.metric_value = math.nan


class MetricsCallback(Callback):
    """Appends one row per epoch to the trainer's :class:`TrainingMetrics`."""

    def on_epoch_end(self, state: TrainState) -> None:
        trainer = state.trainer
        sim_report = trainer.sim_report
        population = getattr(trainer, "population", None)
        if population is not None:
            summary = population.summary()
            active = summary["active_clients"]
            fraction = summary["cohort_fraction"]
            unique_seen = summary["unique_clients_seen"]
        else:
            # Every rank is a client: full participation of a population P.
            active = state.world_size
            fraction = 1.0
            unique_seen = state.world_size
        state.metrics.record_epoch(
            state.epoch, state.epoch_loss, state.metric_value,
            comm_time=trainer.world.simulated_comm_time,
            compute_time=state.timeline.compute_s,
            simulated_time=trainer.simulated_time_s,
            # Cumulative (not per-epoch deltas): the row reproduces
            # identically whether a run was resumed or ran straight through.
            rejected_pushes=sim_report.rejected_pushes,
            mean_staleness=sim_report.mean_staleness(),
            active_clients=active,
            cohort_fraction=fraction,
            unique_clients_seen=unique_seen)


@CALLBACKS.register("progress", description="log loss/metric once per epoch")
class ProgressCallback(Callback):
    """Logs one line per epoch through :func:`repro.utils.logging.get_logger`."""

    def __init__(self, logger_name: str = "repro.trainer"):
        self.logger = get_logger(logger_name)

    def on_epoch_end(self, state: TrainState) -> None:
        self.logger.info(
            "epoch %d/%d  loss=%.4f  %s=%.3f  comm=%.3fms",
            state.epoch + 1, state.config.epochs, state.epoch_loss,
            state.metrics.metric_name, state.metric_value,
            state.trainer.world.simulated_comm_time * 1e3)


@CALLBACKS.register("checkpoint", description="save a resumable checkpoint every k epochs")
class CheckpointCallback(Callback):
    """Writes :func:`repro.core.checkpoint.save_checkpoint` snapshots."""

    def __init__(self, path: str, every_epochs: int = 1):
        if every_epochs < 1:
            raise ValueError("every_epochs must be >= 1")
        self.path = path
        self.every_epochs = every_epochs

    def on_epoch_end(self, state: TrainState) -> None:
        if (state.epoch + 1) % self.every_epochs == 0:
            from repro.core.checkpoint import save_checkpoint
            save_checkpoint(state.trainer, self.path)


@CALLBACKS.register("early_stopping",
                    description="stop when the metric stops improving")
class EarlyStoppingCallback(Callback):
    """Requests a stop after ``patience`` epochs without metric improvement.

    Improvement is metric-direction aware: higher-is-better for ``top1``,
    lower-is-better for ``perplexity``.
    """

    def __init__(self, patience: int = 3, min_delta: float = 0.0):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.min_delta = min_delta
        self.best: float = math.nan
        self.stale_epochs = 0

    def _improved(self, value: float, metric_name: str) -> bool:
        if math.isnan(self.best):
            return not math.isnan(value)
        if metric_name == "perplexity":
            return value < self.best - self.min_delta
        return value > self.best + self.min_delta

    def on_epoch_end(self, state: TrainState) -> None:
        if self._improved(state.metric_value, state.metrics.metric_name):
            self.best = state.metric_value
            self.stale_epochs = 0
        else:
            self.stale_epochs += 1
            if self.stale_epochs >= self.patience:
                state.request_stop()


def resolve_callbacks(specs: Sequence) -> List[Callback]:
    """Build callback instances from a heterogeneous spec list.

    Accepts ready :class:`Callback` instances, registered names
    (``"progress"``), and ``{"name": ..., <kwargs>}`` dicts — the form an
    :class:`~repro.core.spec.ExperimentSpec` carries through JSON.
    """
    callbacks: List[Callback] = []
    for spec in specs or ():
        if isinstance(spec, Callback):
            callbacks.append(spec)
        elif isinstance(spec, str):
            callbacks.append(CALLBACKS.create(spec))
        elif isinstance(spec, dict):
            kwargs = dict(spec)
            try:
                name = kwargs.pop("name")
            except KeyError:
                raise ValueError(f"callback dict {spec!r} is missing the 'name' key; "
                                 f"expected {{'name': <one of {CALLBACKS.list()}>, ...kwargs}}")
            callbacks.append(CALLBACKS.create(name, **kwargs))
        else:
            raise TypeError(f"cannot build a callback from {spec!r}; pass a Callback "
                            "instance, a registered name, or a {'name': ...} dict")
    return callbacks


def callback_problems(specs: Sequence) -> List[str]:
    """Why :func:`resolve_callbacks` could not build ``specs`` (empty = fine).

    Constructs each named callback, so a name whose class needs kwargs (e.g.
    ``"checkpoint"`` without a path) fails at validation, not mid-run.
    """
    problems: List[str] = []
    for entry in specs or ():
        if isinstance(entry, Callback):
            continue
        name = entry.get("name") if isinstance(entry, dict) else entry
        if not isinstance(name, str) or name not in CALLBACKS:
            problems.append(f"unknown callback {entry!r}; registered callbacks: "
                            f"{CALLBACKS.list()}")
            continue
        try:
            resolve_callbacks([entry])
        except Exception as error:
            problems.append(f"callback {entry!r} cannot be constructed: {error}")
    return problems
