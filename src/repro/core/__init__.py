"""Core orchestration: distributed trainer, cost model, experiments."""

from repro.core.batched_replicas import BatchedReplicaExecutor
from repro.core.callbacks import (
    CALLBACKS,
    Callback,
    CallbackList,
    CheckpointCallback,
    EarlyStoppingCallback,
    EvaluationCallback,
    MetricsCallback,
    ProgressCallback,
    TimelineCallback,
    TrainState,
)
from repro.core.flat_buffer import FlatLayout, ModelFlatBuffers, WorldFlatBuffers
from repro.core.flatten import flatten_gradients, flatten_parameters, unflatten_into_gradients, unflatten_into_parameters
from repro.core.metrics import TrainingMetrics, evaluate_classifier, evaluate_language_model, top1_accuracy
from repro.core.timeline import IterationTimeline, SyncReport
from repro.core.trainer import DistributedTrainer, TrainerConfig
from repro.core.cost_model import CostModel, IterationCostBreakdown
from repro.core.algorithm1 import a2sgd_quadratic_descent, dense_quadratic_descent
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.spec import ExperimentSpec, SpecError
from repro.core.experiment import (
    ExperimentResult,
    run_algorithm_sweep,
    run_experiment,
)

__all__ = [
    "BatchedReplicaExecutor",
    "CALLBACKS",
    "Callback",
    "CallbackList",
    "TrainState",
    "TimelineCallback",
    "EvaluationCallback",
    "MetricsCallback",
    "ProgressCallback",
    "CheckpointCallback",
    "EarlyStoppingCallback",
    "FlatLayout",
    "ModelFlatBuffers",
    "WorldFlatBuffers",
    "flatten_gradients",
    "flatten_parameters",
    "unflatten_into_gradients",
    "unflatten_into_parameters",
    "TrainingMetrics",
    "top1_accuracy",
    "evaluate_classifier",
    "evaluate_language_model",
    "IterationTimeline",
    "SyncReport",
    "DistributedTrainer",
    "TrainerConfig",
    "CostModel",
    "IterationCostBreakdown",
    "a2sgd_quadratic_descent",
    "dense_quadratic_descent",
    "save_checkpoint",
    "load_checkpoint",
    "ExperimentSpec",
    "SpecError",
    "ExperimentResult",
    "run_experiment",
    "run_algorithm_sweep",
]
