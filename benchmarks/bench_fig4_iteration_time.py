"""Figure 4 — average iteration time vs number of workers.

The paper plots per-iteration time for 2/4/8/16 workers, four models and five
algorithms on its V100 + 100 Gbps testbed.  This benchmark regenerates the
four panels from the cost model (compute + compression + collective time with
the paper's parameter counts) and additionally cross-checks one point per
panel against the *simulated trainer* (tiny models, real collectives) to make
sure the two accounting paths agree on who communicates how much.

Shape assertions (the paper's observations in §4.4):
* FNN-3 / ResNet-20: all algorithms within a small factor of dense SGD;
* VGG-16 / LSTM-PTB: A2SGD and Gaussian-K clearly faster than Dense, Top-K
  and QSGD, with QSGD slowest;
* every algorithm's collective time grows with the worker count.
"""

import pytest

from repro.analysis.reporting import render_iteration_time_figure
from repro.core import ExperimentSpec, run_experiment

MODELS = ("fnn3", "vgg16", "resnet20", "lstm_ptb")
ALGORITHMS = ("dense", "topk", "qsgd", "gaussiank", "a2sgd")
WORKER_COUNTS = (2, 4, 8, 16)


def build_panel(cost_model, model: str) -> dict:
    return {algorithm: [cost_model.iteration_time(model, algorithm, p) for p in WORKER_COUNTS]
            for algorithm in ALGORITHMS}


@pytest.mark.parametrize("model", MODELS)
def test_figure4_iteration_time(benchmark, emit, cost_model, model):
    panel = benchmark.pedantic(build_panel, args=(cost_model, model), rounds=1, iterations=1)
    text = render_iteration_time_figure(
        {name: [round(v * 1e3, 3) for v in values] for name, values in panel.items()},
        WORKER_COUNTS, model, figure_name="Figure 4 (milliseconds per iteration)")
    emit(f"fig4_iteration_time_{model}", text)

    at8 = {name: values[WORKER_COUNTS.index(8)] for name, values in panel.items()}
    if model in ("vgg16", "lstm_ptb"):
        assert at8["a2sgd"] < at8["dense"]
        assert at8["gaussiank"] < at8["dense"]
        assert at8["qsgd"] == max(at8.values())
    else:
        assert at8["a2sgd"] <= 1.25 * at8["dense"]
        assert at8["gaussiank"] <= 1.25 * at8["dense"]

    # Communication grows with the worker count for the dense exchange.
    dense_comm = [cost_model.communication_time("dense", model, p) for p in WORKER_COUNTS]
    assert all(a < b for a, b in zip(dense_comm, dense_comm[1:]))


def test_figure4_trainer_cross_check(benchmark, emit):
    """One measured point: the simulated trainer's comm accounting at 4 workers.

    The tiny models' absolute times are host-dependent, but the *relative*
    simulated communication time must match the cost model's story: dense ≫
    a2sgd, with topk in between.
    """

    def run():
        times = {}
        for algorithm in ("dense", "topk", "a2sgd"):
            config = ExperimentSpec(model="fnn3", preset="tiny", algorithm=algorithm,
                                      world_size=4, epochs=1, batch_size=16,
                                      max_iterations_per_epoch=8, num_train=256,
                                      num_test=64, seed=0)
            result = run_experiment(config)
            times[algorithm] = result.timeline.communication_s / result.timeline.iterations
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Simulated per-iteration collective time, tiny FNN-3, 4 workers:"]
    for name, value in times.items():
        lines.append(f"  {name:8s} {value * 1e6:10.2f} us")
    emit("fig4_trainer_cross_check", "\n".join(lines))

    assert times["a2sgd"] < times["topk"] < times["dense"]
