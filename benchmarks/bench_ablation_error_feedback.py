"""Ablation — A2SGD with and without the retained local error vector.

§3 of the paper argues that keeping the per-worker error ε_t = g_t − enc(g_t)
preserves the gradient variance and hence the convergence behaviour of dense
SGD.  This ablation removes the error term (workers apply only the
reconstructed global means) and measures the damage on (a) the convex
quadratic problem with a known optimum and (b) the tiny FNN-3 training task.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.core import ExperimentSpec, run_experiment
from repro.core.algorithm1 import QuadraticProblem, a2sgd_quadratic_descent


def run_quadratic_ablation():
    problem = QuadraticProblem(dimension=30, rows_per_worker=150, world_size=4, seed=0)
    with_ef = a2sgd_quadratic_descent(problem, iterations=300, base_lr=0.05,
                                      error_feedback=True)
    without_ef = a2sgd_quadratic_descent(problem, iterations=300, base_lr=0.05,
                                         error_feedback=False)
    return with_ef, without_ef


def run_fnn_ablation():
    results = {}
    for error_feedback in (True, False):
        config = ExperimentSpec(model="fnn3", preset="tiny", algorithm="a2sgd",
                                  world_size=4, epochs=3, batch_size=16,
                                  max_iterations_per_epoch=12, num_train=384, num_test=96,
                                  seed=0,
                                  compressor_kwargs={"error_feedback": error_feedback})
        results[error_feedback] = run_experiment(config)
    return results


def test_ablation_error_feedback_quadratic(benchmark, emit):
    with_ef, without_ef = benchmark.pedantic(run_quadratic_ablation, rounds=1, iterations=1)
    text = format_table(
        ["variant", "final ||w - w*||"],
        [["A2SGD (with local errors, Algorithm 1)", f"{with_ef.final_distance:.4f}"],
         ["A2SGD without error feedback (ablation)", f"{without_ef.final_distance:.4f}"]],
        title="Ablation — error feedback on the distributed quadratic problem")
    emit("ablation_error_feedback_quadratic", text)
    assert with_ef.final_distance < without_ef.final_distance


def test_ablation_error_feedback_fnn3(benchmark, emit):
    results = benchmark.pedantic(run_fnn_ablation, rounds=1, iterations=1)
    text = format_table(
        ["variant", "final top-1 (%)"],
        [["A2SGD (with local errors)", f"{results[True].final_metric:.1f}"],
         ["A2SGD without error feedback", f"{results[False].final_metric:.1f}"]],
        title="Ablation — error feedback on tiny FNN-3 (4 workers, 3 epochs)")
    emit("ablation_error_feedback_fnn3", text)
    assert results[True].final_metric >= results[False].final_metric - 2.0
