#!/usr/bin/env python
"""Compare all gradient compressors on the same gradient stream.

A smaller-scale, self-contained version of the paper's §4.3 analysis: feed an
identical sequence of realistic gradients through every registered compressor
(including the extensions TernGrad, SignSGD and Rand-K that the paper lists
as related work) and report

* bits per worker per iteration (Table 2, column 3),
* measured compression time on this machine (Figure 2's quantity),
* the relative compression error before error feedback, and
* how faithfully the across-worker averaged update tracks dense averaging.

Run with ``python examples/compressor_comparison.py [--size 1000000]``.
"""

import argparse

import numpy as np

from repro.analysis.convergence import single_shot_error
from repro.analysis.reporting import format_table
from repro.compress import get_compressor, list_compressors
from repro.compress.base import ExchangeKind
from repro.utils.timer import median_time


def realistic_gradients(n: int, workers: int, seed: int = 0) -> list[np.ndarray]:
    """Bell-shaped gradients with slight per-worker variation (as in Fig. 1)."""
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(n) * 0.01
    return [(shared + rng.standard_normal(n) * 0.004).astype(np.float32)
            for _ in range(workers)]


def fidelity_of_average(name: str, gradients: list[np.ndarray]) -> float:
    """Relative gap between the algorithm's averaged update and dense averaging."""
    compressors = [get_compressor(name) for _ in gradients]
    payloads, contexts = [], []
    for compressor, gradient in zip(compressors, gradients):
        payload, ctx = compressor.compress(gradient)
        payloads.append(payload)
        contexts.append(ctx)
    if compressors[0].exchange is ExchangeKind.ALLREDUCE:
        global_payload = np.mean(np.stack(payloads), axis=0)
        updates = [c.decompress(global_payload, ctx) for c, ctx in zip(compressors, contexts)]
    else:
        updates = [c.decompress_gathered(payloads, ctx) for c, ctx in zip(compressors, contexts)]
    dense_average = np.mean(np.stack(gradients), axis=0)
    averaged_update = np.mean(np.stack(updates), axis=0)
    return float(np.linalg.norm(averaged_update - dense_average)
                 / np.linalg.norm(dense_average))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=1_000_000,
                        help="gradient length (model parameters)")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()

    gradients = realistic_gradients(args.size, args.workers)
    timing_sample = gradients[0]

    rows = []
    for name in list_compressors():
        compressor = get_compressor(name)
        seconds = median_time(lambda c=compressor: c.compress(timing_sample.copy()), repeats=3)
        rows.append([
            name,
            compressor.exchange.value,
            f"{compressor.wire_bits(args.size):,.0f}",
            compressor.computation_complexity(args.size),
            f"{seconds * 1e3:.2f}",
            f"{single_shot_error(get_compressor(name), timing_sample.copy()):.3f}",
            f"{fidelity_of_average(name, gradients):.3f}",
        ])

    print(format_table(
        ["algorithm", "exchange", "bits/worker", "complexity", "compress (ms)",
         "single-shot error", "avg-update gap vs dense"],
        rows,
        title=f"Gradient compressors on an n={args.size:,} gradient, "
              f"{args.workers} workers"))
    print()
    print("Notes: 'single-shot error' is the relative error of one compressed")
    print("gradient before error feedback; 'avg-update gap' compares the")
    print("across-worker averaged update with plain dense averaging (A2SGD's")
    print("gap comes only from the difference between local and global means).")


if __name__ == "__main__":
    main()
