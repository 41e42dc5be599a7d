#!/usr/bin/env python
"""Distributed ResNet-20 on synthetic CIFAR-10 across all five algorithms.

Reproduces one cell of the paper's Figure 3(c) setup at CI scale: the same
ResNet-20 architecture (scaled width), sharded synthetic CIFAR-10 data, and
the five gradient-synchronization algorithms the paper compares.  Prints the
per-epoch accuracy curve and the traffic/time accounting for each algorithm.

Run with ``python examples/distributed_resnet_cifar.py [--workers 4] [--epochs 3]``.
"""

import argparse

from repro.analysis.reporting import format_figure_series, format_table
from repro.core import ExperimentSpec, run_experiment

ALGORITHMS = ("dense", "topk", "qsgd", "gaussiank", "a2sgd")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4, help="simulated data-parallel workers")
    parser.add_argument("--epochs", type=int, default=3, help="training epochs")
    parser.add_argument("--iterations", type=int, default=15, help="iterations per epoch")
    args = parser.parse_args()

    base = ExperimentSpec(model="resnet20", preset="tiny", world_size=args.workers,
                          epochs=args.epochs, batch_size=8,
                          max_iterations_per_epoch=args.iterations,
                          num_train=512, num_test=128, seed=0)
    results = {}
    for algorithm in ALGORITHMS:
        # The sparsifiers use a denser ratio than the paper's 0.001 because the
        # run is only a few dozen iterations long (see DESIGN.md).
        kwargs = {"ratio": 0.05} if algorithm in ("topk", "gaussiank") else {}
        print(f"training resnet20/tiny with {algorithm} on {args.workers} workers ...")
        results[algorithm] = run_experiment(
            base.replace(algorithm=algorithm, compressor_kwargs=kwargs))

    epochs = results["dense"].metrics.epochs
    accuracy_series = {name: result.metrics.metric for name, result in results.items()}
    print()
    print(format_figure_series(accuracy_series, epochs, x_label="epoch",
                               title=f"Figure 3(c)-style panel — ResNet-20, "
                                     f"{args.workers} workers, top-1 accuracy (%)"))

    print()
    rows = []
    for name, result in results.items():
        rows.append([
            name,
            f"{result.final_metric:.1f}%",
            f"{result.wire_bits_per_iteration:,.0f}",
            f"{result.timeline.communication_s * 1e3:.3f}",
            f"{result.timeline.compression_s * 1e3:.1f}",
            f"{result.wall_time_s:.1f}",
        ])
    print(format_table(
        ["algorithm", "final top-1", "bits/worker/iter", "sim comm (ms)",
         "modelled compression (ms)", "wall time (s)"],
        rows, title="Per-algorithm accounting"))


if __name__ == "__main__":
    main()
