"""Evaluation metrics: top-1 accuracy, perplexity, throughput."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.data.datasets import ArrayDataset
from repro.data.synthetic_text import LanguageModelBatcher
from repro.nn.module import Module
from repro.tensor import Tensor, no_grad


def top1_accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the integer target."""
    logits = np.asarray(logits)
    targets = np.asarray(targets).reshape(-1)
    if logits.shape[0] != targets.shape[0]:
        raise ValueError("logits and targets must have the same number of rows")
    predictions = logits.argmax(axis=1)
    return float((predictions == targets).mean())


def evaluate_classifier(model: Module, dataset: ArrayDataset, batch_size: int = 256,
                        max_examples: Optional[int] = None) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (percent, as the paper plots)."""
    model.eval()
    correct = 0
    total = 0
    limit = len(dataset) if max_examples is None else min(len(dataset), max_examples)
    with no_grad():
        for start in range(0, limit, batch_size):
            end = min(start + batch_size, limit)
            xs = np.stack([dataset[i][0] for i in range(start, end)])
            ys = np.asarray([dataset[i][1] for i in range(start, end)])
            logits = model(Tensor(xs))
            correct += int((logits.data.argmax(axis=1) == ys).sum())
            total += len(ys)
    model.train()
    return 100.0 * correct / max(1, total)


def evaluate_language_model(model: Module, batcher: LanguageModelBatcher,
                            max_batches: Optional[int] = None) -> float:
    """Perplexity of a language model on a token stream."""
    model.eval()
    total_loss = 0.0
    total_tokens = 0
    state = None
    with no_grad():
        for i, (inputs, targets) in enumerate(batcher.batches()):
            if max_batches is not None and i >= max_batches:
                break
            loss, state = model(inputs, state, targets)
            state = model.detach_state(state)
            count = targets.size
            total_loss += float(loss.item()) * count
            total_tokens += count
    model.train()
    if total_tokens == 0:
        raise ValueError("language-model evaluation saw no tokens")
    return float(np.exp(min(30.0, total_loss / total_tokens)))


@dataclass
class TrainingMetrics:
    """Per-epoch history of one training run.

    ``metric`` holds top-1 accuracy (percent) for classification models and
    perplexity for language models — the same quantities Figure 3 plots.
    Rows are appended by :class:`repro.core.callbacks.MetricsCallback` (one
    of the trainer's built-in lifecycle callbacks) at every ``on_epoch_end``.
    """

    metric_name: str = "top1"
    epochs: List[int] = field(default_factory=list)
    train_loss: List[float] = field(default_factory=list)
    metric: List[float] = field(default_factory=list)
    simulated_comm_time_s: List[float] = field(default_factory=list)
    #: Cumulative simulated compute time (``timeline.compute_s``).
    simulated_compute_time_s: List[float] = field(default_factory=list)
    #: Simulated time at the end of each epoch — the x-axis of
    #: time-to-accuracy plots.
    simulated_time_s: List[float] = field(default_factory=list)
    #: Async-PS health per epoch row: cumulative pushes rejected for
    #: staleness, and the running mean of the staleness histogram (0 for
    #: synchronous/healthy runs) — so a degraded async run is diagnosable
    #: from the CSV alone instead of being trapped in the SimReport.
    rejected_pushes: List[int] = field(default_factory=list)
    mean_staleness: List[float] = field(default_factory=list)
    #: Federated participation per epoch row: clients materialized in the
    #: current round, the cohort fraction K/N, and the cumulative count of
    #: distinct clients sampled so far.  Without a client population these
    #: degenerate to (world_size, 1.0, world_size) — every rank is a client.
    active_clients: List[int] = field(default_factory=list)
    cohort_fraction: List[float] = field(default_factory=list)
    unique_clients_seen: List[int] = field(default_factory=list)

    def record_epoch(self, epoch: int, train_loss: float, metric_value: float,
                     comm_time: float, compute_time: float,
                     simulated_time: float = float("nan"),
                     rejected_pushes: int = 0,
                     mean_staleness: float = 0.0,
                     active_clients: int = 0,
                     cohort_fraction: float = 1.0,
                     unique_clients_seen: int = 0) -> None:
        self.epochs.append(int(epoch))
        self.train_loss.append(float(train_loss))
        self.metric.append(float(metric_value))
        self.simulated_comm_time_s.append(float(comm_time))
        self.simulated_compute_time_s.append(float(compute_time))
        self.simulated_time_s.append(float(simulated_time))
        self.rejected_pushes.append(int(rejected_pushes))
        self.mean_staleness.append(float(mean_staleness))
        self.active_clients.append(int(active_clients))
        self.cohort_fraction.append(float(cohort_fraction))
        self.unique_clients_seen.append(int(unique_clients_seen))

    @property
    def final_metric(self) -> float:
        if not self.metric:
            raise ValueError("no epochs recorded")
        return self.metric[-1]

    @property
    def best_metric(self) -> float:
        if not self.metric:
            raise ValueError("no epochs recorded")
        return max(self.metric) if self.metric_name == "top1" else min(self.metric)

    def as_dict(self) -> Dict[str, object]:
        return {"metric_name": self.metric_name,
                **{attr: list(getattr(self, attr)) for _, attr in self.CSV_COLUMNS}}

    #: Column header -> row-attribute name, in CSV column order.
    CSV_COLUMNS = (
        ("epoch", "epochs"),
        ("train_loss", "train_loss"),
        ("metric", "metric"),
        ("simulated_comm_time_s", "simulated_comm_time_s"),
        ("simulated_compute_time_s", "simulated_compute_time_s"),
        ("simulated_time_s", "simulated_time_s"),
        ("rejected_pushes", "rejected_pushes"),
        ("mean_staleness", "mean_staleness"),
        ("active_clients", "active_clients"),
        ("cohort_fraction", "cohort_fraction"),
        ("unique_clients_seen", "unique_clients_seen"),
    )

    #: Checkpoint key -> (row-attribute name, dtype), in file order.
    STATE_COLUMNS = (
        ("metric_history", "metric", np.float64),
        ("loss_history", "train_loss", np.float64),
        ("epoch_history", "epochs", np.int64),
        ("metrics_sim_time", "simulated_time_s", np.float64),
        ("metrics_rejected", "rejected_pushes", np.int64),
        ("metrics_staleness", "mean_staleness", np.float64),
        ("metrics_active_clients", "active_clients", np.int64),
        ("metrics_cohort_fraction", "cohort_fraction", np.float64),
        ("metrics_unique_clients", "unique_clients_seen", np.int64),
    )

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The checkpointed history columns (see :mod:`repro.core.checkpoint`)."""
        return {key: np.array(getattr(self, attr), dtype=dtype)
                for key, attr, dtype in self.STATE_COLUMNS}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        for key, attr, _ in self.STATE_COLUMNS:
            setattr(self, attr, arrays[key].tolist())

    def to_csv(self, path) -> Path:
        """Write one row per recorded epoch (``repro run --metrics-csv``)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [",".join(header for header, _ in self.CSV_COLUMNS)]
        for row in range(len(self.epochs)):
            values = []
            for _, attr in self.CSV_COLUMNS:
                column = getattr(self, attr)
                values.append(repr(column[row]) if row < len(column) else "")
            lines.append(",".join(values))
        path.write_text("\n".join(lines) + "\n")
        return path


def throughput_examples_per_second(examples: int, elapsed_s: float) -> float:
    """Images (or tokens) processed per second — Table 2's throughput measure."""
    if elapsed_s <= 0:
        raise ValueError("elapsed time must be positive")
    return examples / elapsed_s
