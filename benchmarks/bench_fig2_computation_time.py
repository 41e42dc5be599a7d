"""Figure 2 — compression computation time vs number of parameters.

The paper measures the time each algorithm needs to process a gradient of
growing size (up to 100 M parameters) and finds A2SGD ≈ Gaussian-K ≪ Top-K ≪
QSGD.  This benchmark measures the same quantity for this repository's
kernels across a sweep of sizes and reports the series.  (The absolute times
differ from the paper's GPU/CPU mix — see DESIGN.md — but QSGD's dominance
and the closeness of A2SGD and Gaussian-K are preserved.)

The Top-K ≪ gap is not reproduced by an exact CPU selection.  Top-K here
partitions only the candidates above a floor sampled from the gradient
(``repro.compress.base.top_k_indices``): a few O(n) passes plus an O(k)
partition, the same index set as a full-row partition.  At 6.4 M parameters
it takes about as long as A2SGD (0.025 s against 0.021 s in
``results/fig2_computation_time.txt``, a 2-core host, one thread) and less than Gaussian-K;
the full-row partition it replaced took 0.055 s on the same host.
"""

import numpy as np
import pytest

from repro.analysis.reporting import format_figure_series
from repro.compress import get_compressor
from repro.utils.timer import median_time

ALGORITHMS = ("topk", "qsgd", "gaussiank", "a2sgd")
#: Parameter counts for the sweep (kept below the paper's 100 M so the
#: benchmark completes in seconds; the scaling trend is what matters).
SWEEP_SIZES = (100_000, 400_000, 1_600_000, 6_400_000)


def measure_series(sizes=SWEEP_SIZES, repeats: int = 3) -> dict:
    rng = np.random.default_rng(0)
    series = {name: [] for name in ALGORITHMS}
    for n in sizes:
        gradient = (rng.standard_normal(n) * 0.01).astype(np.float32)
        for name in ALGORITHMS:
            compressor = get_compressor(name)
            seconds = median_time(lambda c=compressor: c.compress(gradient), repeats=repeats)
            series[name].append(seconds)
    return series


def test_figure2_computation_time_sweep(benchmark, emit):
    """Regenerate Figure 2's series: compression seconds vs model size."""
    series = benchmark.pedantic(measure_series, rounds=1, iterations=1)
    text = format_figure_series(
        {name: [f"{v:.4f}" for v in values] for name, values in series.items()},
        [f"{n / 1e6:.1f}M" for n in SWEEP_SIZES],
        x_label="# parameters",
        title="Figure 2 — compression computation time (seconds) vs model size")
    emit("fig2_computation_time", text)

    # Shape assertions from the paper: QSGD is by far the most expensive and
    # A2SGD / Gaussian-K stay within a small factor of each other.
    largest = {name: values[-1] for name, values in series.items()}
    assert largest["qsgd"] == max(largest.values())
    assert largest["a2sgd"] < largest["qsgd"] / 2
    ratio = largest["a2sgd"] / largest["gaussiank"]
    assert 0.1 < ratio < 10.0


@pytest.mark.parametrize("algorithm", ALGORITHMS + ("dense",))
def test_compression_kernel(benchmark, algorithm):
    """Micro-benchmark of each compressor on a fixed 1M-parameter gradient."""
    gradient = (np.random.default_rng(0).standard_normal(1_000_000) * 0.01).astype(np.float32)
    compressor = get_compressor(algorithm)
    payload, ctx = benchmark(compressor.compress, gradient)
    assert payload.ndim == 1
