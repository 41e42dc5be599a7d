"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    List the registered models, compressors, datasets, callbacks and the
    Table-1 hyperparameters.
``components``
    List every component registry (models, compressors, datasets,
    optimizers, LR schedules, networks, callbacks, sync strategies,
    aggregators, topologies) with one-line descriptions.
``run``
    Train one configuration with the simulated distributed trainer — either
    from flags or from a declarative JSON spec (``--config spec.json``) —
    and print its convergence curve.  ``--sync/--sync-period/--aggregator/
    --topology`` select the synchronization setup (see ``repro components``).
``validate``
    Check an experiment spec file without running it; prints the resolved
    configuration or every problem found.
``sweep``
    Run a Figure-3-style convergence sweep (several algorithms × worker
    counts) and write the results to JSON.
``cost``
    Evaluate the paper-scale cost model: iteration time, total training time
    and scaling efficiency (Figures 4/5, Table 2).
``compare``
    Compare every registered compressor on one synthetic gradient (traffic,
    measured kernel time, compression error).
``bench-backend``
    Time the multiprocessing execution backend against the in-process one
    at several worker-process counts.

Dispatch uses ``set_defaults(handler=...)`` — each subparser binds its
implementation, so adding a command is one ``sub.add_parser`` block with no
if/elif ladder to extend.  Flags shared between training commands live on
parent parsers.  On ``run``, explicit flags override the spec file: the
flag parsers default to ``argparse.SUPPRESS`` so only user-provided values
are merged onto the :class:`~repro.core.spec.ExperimentSpec`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.convergence import single_shot_error
from repro.analysis.reporting import format_figure_series, format_table
from repro.backends import EXECUTION_BACKENDS
from repro.analysis.sweeps import DEFAULT_ALGORITHMS, convergence_sweep, cost_sweep
from repro.compress import get_compressor, list_compressors
from repro.core.callbacks import CALLBACKS
from repro.core.cost_model import CostModel
from repro.core.experiment import run_experiment
from repro.core.spec import ExperimentSpec, SpecError
from repro.comm.network_model import NETWORKS
from repro.comm.topology import TOPOLOGIES
from repro.compress.registry import COMPRESSORS
from repro.data.registry import DATASETS
from repro.models.registry import (
    MODELS,
    PAPER_HYPERPARAMETERS,
    PAPER_PARAMETER_COUNTS,
    get_model_spec,
    list_models,
)
from repro.optim.registry import LR_SCHEDULES, OPTIMIZERS
from repro.faults import FAULT_MODELS, FaultSpec
from repro.federated import CLIENT_SAMPLERS, ClientSpec
from repro.data.partition import PARTITION_POLICIES
from repro.registry import public_registries
from repro.sim.compute import COMPUTE_MODELS
from repro.sync import AGGREGATORS, SYNC_STRATEGIES, SyncSpec
from repro.utils.serialization import save_json
from repro.utils.timer import median_time

#: argparse dest -> ExperimentSpec field, for the ``run`` flag/spec merge.
RUN_FLAG_FIELDS: Dict[str, str] = {
    "model": "model",
    "preset": "preset",
    "algorithm": "algorithm",
    "workers": "world_size",
    "epochs": "epochs",
    "iterations": "max_iterations_per_epoch",
    "batch_size": "batch_size",
    "seed": "seed",
    "eval_every": "eval_every",
    "compute_model": "compute_model",
    "seed_clock": "clock_seed",
    "seed_faults": "fault_seed",
    "backend": "backend",
}

#: argparse dest -> SyncSpec field, merged into the spec's ``sync`` section.
SYNC_FLAG_FIELDS: Dict[str, str] = {
    "sync": "strategy",
    "sync_period": "period",
    "aggregator": "aggregator",
    "topology": "topology",
    "param_compression": "parameter_compression",
}

#: argparse dest -> ClientSpec field, merged into the spec's ``clients``
#: section.
CLIENT_FLAG_FIELDS: Dict[str, str] = {
    "num_clients": "num_clients",
    "cohort_size": "cohort_size",
    "client_sampler": "sampler",
    "data_skew": "data_skew",
}

#: Flag-mode baseline for ``repro run`` (historical CLI defaults; the
#: remaining fields use the ExperimentSpec defaults).
CLI_RUN_DEFAULTS: Dict[str, object] = {"max_iterations_per_epoch": 12, "batch_size": 16}

#: Every component registry, as shown by ``repro components`` — the live
#: label → Registry mapping populated by ``Registry(..., expose=...)``.  The
#: imports above pull in every registry-defining module, so the mapping is
#: complete by the time this module is loaded; a newly-exposed registry
#: appears here with no table to update.
COMPONENT_REGISTRIES = public_registries()


def _registry_name(registry):
    """argparse ``type=`` that canonicalizes a registry name (aliases OK)."""
    def parse(value: str) -> str:
        try:
            return registry.canonical(value)
        except KeyError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    parse.__name__ = registry.kind.replace(" ", "_")    # shown in error text
    return parse


def _fault_model_name(value: str) -> str:
    """argparse ``type=`` for ``--fault-model``: "none" or a fault model."""
    if value.strip().lower() in ("none", "off"):
        return "none"
    try:
        return FAULT_MODELS.canonical(value)
    except KeyError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _param_compression_name(value: str) -> str:
    """argparse ``type=`` for ``--param-compression``: "none" or a compressor."""
    if value.strip().lower() in ("none", "off"):
        return "none"
    try:
        return COMPRESSORS.canonical(value)
    except KeyError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="A2SGD reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared parent parsers (add_help=False so they compose into subparsers).
    output_parent = argparse.ArgumentParser(add_help=False)
    output_parent.add_argument("--output", default=None, help="optional JSON output path")

    train_parent = argparse.ArgumentParser(add_help=False)
    train_parent.add_argument("--model", default=argparse.SUPPRESS, choices=list_models())
    train_parent.add_argument("--preset", default=argparse.SUPPRESS,
                              choices=["tiny", "paper"],
                              help="model size preset (default: tiny)")
    train_parent.add_argument("--algorithm", default=argparse.SUPPRESS,
                              choices=list_compressors())
    train_parent.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    train_parent.add_argument("--epochs", type=int, default=argparse.SUPPRESS)
    train_parent.add_argument("--iterations", type=int, default=argparse.SUPPRESS,
                              help="iterations per epoch")
    train_parent.add_argument("--batch-size", type=int, default=argparse.SUPPRESS)
    train_parent.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    train_parent.add_argument("--eval-every", type=int, default=argparse.SUPPRESS,
                              help="evaluate every k epochs (always on the last)")
    # type=, not choices=: registry lookups accept aliases and case/
    # punctuation variants ("localsgd", "Top-K"), exactly like spec files,
    # and the canonical name lands in the namespace.
    train_parent.add_argument("--sync", default=argparse.SUPPRESS,
                              type=_registry_name(SYNC_STRATEGIES),
                              metavar=f"{{{','.join(SYNC_STRATEGIES.list())}}}",
                              help="synchronization strategy (default: allreduce)")
    train_parent.add_argument("--sync-period", type=int, default=argparse.SUPPRESS,
                              metavar="H",
                              help="local_sgd: aggregate parameters every H iterations")
    train_parent.add_argument("--aggregator", default=argparse.SUPPRESS,
                              type=_registry_name(AGGREGATORS),
                              metavar=f"{{{','.join(AGGREGATORS.list())}}}",
                              help="how per-rank payloads combine (default: mean)")
    train_parent.add_argument("--topology", default=argparse.SUPPRESS,
                              type=_registry_name(TOPOLOGIES),
                              metavar=f"{{{','.join(TOPOLOGIES.list())}}}",
                              help="gossip communication graph (default: ring)")
    train_parent.add_argument("--param-compression", dest="param_compression",
                              default=argparse.SUPPRESS,
                              type=_param_compression_name,
                              metavar=f"{{none,{','.join(COMPRESSORS.list())}}}",
                              help="compress the parameter-phase payloads of "
                                   "local_sgd/gossip as deltas against the last "
                                   "synchronized reference (default: none)")
    train_parent.add_argument("--compute-model", dest="compute_model",
                              default=argparse.SUPPRESS,
                              type=_registry_name(COMPUTE_MODELS),
                              metavar=f"{{{','.join(COMPUTE_MODELS.list())}}}",
                              help="per-rank compute-time model for the simulated "
                                   "clock every run keeps (default: constant)")
    train_parent.add_argument("--seed-clock", dest="seed_clock", type=int,
                              default=argparse.SUPPRESS, metavar="SEED",
                              help="seed for the compute-time draws (independent "
                                   "of --seed; identical seeds reproduce event "
                                   "timelines exactly)")
    train_parent.add_argument("--fault-model", dest="fault_model",
                              default=argparse.SUPPRESS,
                              type=_fault_model_name,
                              metavar=f"{{none,{','.join(FAULT_MODELS.list())}}}",
                              help="inject faults from a registered schedule "
                                   "(default: none — bit-identical to the "
                                   "fault-free paths); parameters go in the "
                                   "spec's \"faults\" section")
    train_parent.add_argument("--seed-faults", dest="seed_faults", type=int,
                              default=argparse.SUPPRESS, metavar="SEED",
                              help="seed for the fault timeline (independent of "
                                   "--seed/--seed-clock; identical seeds "
                                   "reproduce outages and message loss exactly)")
    train_parent.add_argument("--backend", default=argparse.SUPPRESS,
                              type=_registry_name(EXECUTION_BACKENDS),
                              metavar=f"{{{','.join(EXECUTION_BACKENDS.list())}}}",
                              help="execution backend (default: inprocess; "
                                   "multiprocessing runs rank shards as worker "
                                   "processes over shared memory, bit-identical)")
    train_parent.add_argument("--backend-workers", dest="backend_workers",
                              type=int, default=argparse.SUPPRESS, metavar="K",
                              help="multiprocessing backend: number of worker "
                                   "processes (contiguous rank shards; default: "
                                   "one per rank)")
    train_parent.add_argument("--num-clients", dest="num_clients", type=int,
                              default=argparse.SUPPRESS, metavar="N",
                              help="federated: logical client population size "
                                   "(enables the clients layer; requires "
                                   "--sync fedavg)")
    train_parent.add_argument("--cohort-size", dest="cohort_size", type=int,
                              default=argparse.SUPPRESS, metavar="K",
                              help="federated: clients materialized per round "
                                   "(must equal --workers; default: the world "
                                   "size)")
    train_parent.add_argument("--client-sampler", dest="client_sampler",
                              default=argparse.SUPPRESS,
                              type=_registry_name(CLIENT_SAMPLERS),
                              metavar=f"{{{','.join(CLIENT_SAMPLERS.list())}}}",
                              help="federated: per-round cohort sampler "
                                   "(default: uniform_without_replacement)")
    train_parent.add_argument("--data-skew", dest="data_skew",
                              default=argparse.SUPPRESS,
                              choices=list(PARTITION_POLICIES),
                              help="federated: per-client partition policy "
                                   "(default: iid; dirichlet parameters go in "
                                   "the spec's \"clients\" section)")

    info = sub.add_parser("info",
                          help="list models, compressors, datasets, callbacks and "
                               "paper hyperparameters")
    info.set_defaults(handler=lambda args: cmd_info())

    components = sub.add_parser("components",
                                help="list every component registry "
                                     "(strategies, aggregators, topologies, ...)")
    components.add_argument("--registry", default=None,
                            choices=sorted(COMPONENT_REGISTRIES),
                            help="show one registry instead of all of them")
    components.set_defaults(handler=cmd_components)

    run = sub.add_parser("run", parents=[train_parent, output_parent],
                         help="train one configuration with the simulated trainer")
    run.add_argument("--config", default=None, metavar="SPEC.json",
                     help="experiment spec file; explicit flags override its fields")
    run.add_argument("--callback", action="append", default=None, metavar="NAME",
                     help=f"add a registered callback (repeatable); "
                          f"one of {CALLBACKS.list()}")
    run.add_argument("--metrics-csv", dest="metrics_csv", default=None,
                     metavar="PATH",
                     help="write the per-epoch metrics (loss, metric, simulated "
                          "time, rejected pushes, mean staleness, client "
                          "participation) as CSV")
    run.set_defaults(handler=cmd_run)

    validate = sub.add_parser("validate",
                              help="check an experiment spec file without running it")
    validate.add_argument("config", metavar="SPEC.json", help="experiment spec file")
    validate.set_defaults(handler=cmd_validate)

    sweep = sub.add_parser("sweep", parents=[output_parent],
                           help="Figure-3-style convergence sweep")
    sweep.add_argument("--model", default="fnn3", choices=list_models())
    sweep.add_argument("--workers", type=int, nargs="+", default=[2, 4, 8])
    sweep.add_argument("--algorithms", nargs="+", default=list(DEFAULT_ALGORITHMS))
    sweep.add_argument("--epochs", type=int, default=3)
    sweep.set_defaults(handler=cmd_sweep)

    cost = sub.add_parser("cost", parents=[output_parent],
                          help="paper-scale cost model (Figures 4/5, Table 2)")
    cost.add_argument("--models", nargs="+", default=["fnn3", "vgg16", "resnet20", "lstm_ptb"])
    cost.add_argument("--algorithms", nargs="+", default=list(DEFAULT_ALGORITHMS))
    cost.add_argument("--workers", type=int, nargs="+", default=[2, 4, 8, 16])
    cost.set_defaults(handler=cmd_cost)

    compare = sub.add_parser("compare", help="compare compressors on one gradient")
    compare.add_argument("--size", type=int, default=1_000_000)
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(handler=cmd_compare)

    bench_backend = sub.add_parser(
        "bench-backend",
        help="time the multiprocessing backend against inprocess")
    bench_backend.add_argument("--model", default="resnet20", choices=list_models())
    bench_backend.add_argument("--algorithm", default="a2sgd",
                               choices=list_compressors())
    bench_backend.add_argument("--workers", type=int, default=4,
                               help="world size P (ranks)")
    bench_backend.add_argument("--backend-workers", dest="backend_workers",
                               type=int, nargs="+", default=[1, 2, 4],
                               metavar="K",
                               help="multiprocessing worker-process counts to "
                                    "benchmark (default: 1 2 4)")
    bench_backend.add_argument("--iterations", type=int, default=20)
    bench_backend.add_argument("--repeats", type=int, default=3)
    bench_backend.add_argument("--output", default="BENCH_backend.json",
                               help="JSON file the run is appended to")
    bench_backend.set_defaults(handler=cmd_bench_backend)

    return parser


# ---------------------------------------------------------------------- #
# command implementations (each returns the text it printed, for testing,
# or an int exit code)
# ---------------------------------------------------------------------- #
def cmd_info() -> str:
    rows = []
    for name in list_models():
        hp = PAPER_HYPERPARAMETERS[name]
        rows.append([name, f"{PAPER_PARAMETER_COUNTS[name]:,}", hp["dataset"],
                     hp["batch_size"], hp["base_lr"], hp["lr_policy"], hp["epochs"]])
    models_table = format_table(
        ["model", "#params (paper)", "dataset", "batch", "base LR", "LR policy", "epochs"],
        rows, title="Models (Table 1)")
    compressors_table = format_table(
        ["compressor", "exchange", "bits @ 1M params", "complexity"],
        [[name, get_compressor(name).exchange.value,
          f"{get_compressor(name).wire_bits(1_000_000):,.0f}",
          get_compressor(name).computation_complexity(1_000_000)]
         for name in list_compressors()],
        title="Gradient compressors")
    datasets_table = format_table(
        ["dataset", "description"],
        [[name, description] for name, description in DATASETS.describe().items()],
        title="Datasets")
    callbacks_table = format_table(
        ["callback", "description"],
        [[name, description] for name, description in CALLBACKS.describe().items()],
        title="Trainer callbacks (usable via spec \"callbacks\" or --callback)")
    text = "\n\n".join([models_table, compressors_table, datasets_table, callbacks_table])
    print(text)
    return text


def cmd_components(args: argparse.Namespace) -> str:
    """Render every component registry (or one, with ``--registry``)."""
    selected = ([args.registry] if args.registry else sorted(COMPONENT_REGISTRIES))
    sections = []
    for name in selected:
        registry = COMPONENT_REGISTRIES[name]
        rows = [[entry, description]
                for entry, description in registry.describe().items()]
        sections.append(format_table([registry.kind, "description"], rows,
                                     title=f"{name} ({len(rows)} registered)"))
    text = "\n\n".join(sections)
    print(text)
    return text


def _spec_from_run_args(args: argparse.Namespace) -> ExperimentSpec:
    """Merge ``run`` flags over the spec file (or the flag-mode defaults).

    The sync flags merge *into* the spec's ``sync`` section rather than
    replacing it, so ``--aggregator geometric_median`` composes with a
    config file that already selects a strategy.
    """
    if args.config:
        spec = ExperimentSpec.from_file(args.config)
    else:
        spec = ExperimentSpec(**CLI_RUN_DEFAULTS)
    overrides = {field: getattr(args, dest)
                 for dest, field in RUN_FLAG_FIELDS.items() if hasattr(args, dest)}
    sync_overrides = {field: getattr(args, dest)
                      for dest, field in SYNC_FLAG_FIELDS.items() if hasattr(args, dest)}
    if sync_overrides:
        try:
            # merged_with owns the switch-and-reset policy (dropping a
            # switched-away strategy's period/topology and a switched-away
            # aggregator's kwargs) so every merge entry point shares it.
            overrides["sync"] = SyncSpec.resolve(spec.sync).merged_with(sync_overrides)
        except ValueError as error:
            raise SpecError(str(error).splitlines()) from None
    if hasattr(args, "fault_model"):
        try:
            # Same policy as sync: the flag merges into the spec's faults
            # section (model_kwargs reset when the model actually switches).
            overrides["faults"] = FaultSpec.resolve(spec.faults).merged_with(
                {"model": args.fault_model})
        except ValueError as error:
            raise SpecError(str(error).splitlines()) from None
    client_overrides = {field: getattr(args, dest)
                        for dest, field in CLIENT_FLAG_FIELDS.items()
                        if hasattr(args, dest)}
    if client_overrides:
        try:
            # merged_with resets data_skew_kwargs when --data-skew actually
            # switches policy (a dirichlet alpha means nothing to shards).
            overrides["clients"] = ClientSpec.resolve(spec.clients).merged_with(
                client_overrides)
        except ValueError as error:
            raise SpecError(str(error).splitlines()) from None
    # Same switch-and-reset policy as sync: --backend switching away from
    # the spec's backend drops that backend's kwargs (they were written for
    # it), while --backend-workers merges into whatever kwargs remain.
    base_kwargs = dict(spec.backend_kwargs)
    if overrides.get("backend", spec.backend) != spec.backend:
        base_kwargs = {}
        overrides["backend_kwargs"] = base_kwargs
    if hasattr(args, "backend_workers"):
        overrides["backend_kwargs"] = {**base_kwargs,
                                       "num_workers": args.backend_workers}
    if args.callback:
        overrides["callbacks"] = [*spec.callbacks, *args.callback]
    return spec.replace(**overrides) if overrides else spec


def cmd_run(args: argparse.Namespace):
    try:
        spec = _spec_from_run_args(args).validate()
    except SpecError as error:
        print(error, file=sys.stderr)
        return 1
    result = run_experiment(spec)
    rows = [[epoch, f"{loss:.4f}", f"{metric:.2f}"]
            for epoch, loss, metric in zip(result.metrics.epochs, result.metrics.train_loss,
                                           result.metrics.metric)]
    sync = spec.resolved_sync()
    sync_note = "" if sync == SyncSpec() else f" [{sync.describe()}]"
    text = format_table(
        ["epoch", "train loss", result.metric_name],
        rows,
        # "peak": the busiest rank's traffic — for gossip the max-degree rank
        # (the same critical path the α–β model prices); identical across
        # ranks for the symmetric strategies.
        title=(f"{spec.model} / {spec.algorithm} / {spec.world_size} workers — "
               f"{result.wire_bits_per_iteration:,.0f} peak bits/worker/iteration, "
               f"{result.wall_time_s:.1f}s wall time{sync_note}"))
    if result.clients is not None:
        clients = result.clients
        text += (f"\nclients: {clients['num_clients']} total, cohort "
                 f"{clients['cohort_size']} "
                 f"({100 * clients['cohort_fraction']:.0f}%), "
                 f"{clients['rounds']} round(s), "
                 f"unique clients seen {clients['unique_clients_seen']}")
    sim = result.sim
    line = (f"simulated time: {sim['simulated_time_s']:.4f}s "
            f"({sim['strategy']} on {sim['compute_model'].get('name', '?')} "
            f"compute model, clock seed {sim['clock_seed']})")
    if sim.get("rejected_pushes"):
        line += f"; rejected pushes: {sim['rejected_pushes']}"
    text = f"{text}\n{line}"
    fault = sim.get("fault")
    if fault:
        fault_line = (f"faults ({fault['model']}, seed {fault['seed']}): "
                      f"downtime {fault['total_downtime_s']:.4f}s over "
                      f"{sum(fault['down_transitions_per_rank'])} outage(s), "
                      f"{sum(fault['rejoins_per_rank'])} rejoin(s), "
                      f"{fault['dropped_messages']} dropped message(s), "
                      f"{fault['retries']} retrie(s), "
                      f"re-sync {fault['resync_bytes']:,.0f} B over "
                      f"{fault['resyncs']} catch-up(s)")
        text = f"{text}\n{fault_line}"
    print(text)
    if args.output:
        path = save_json(result.as_dict(), args.output)
        print(f"results written to {path}")
    if getattr(args, "metrics_csv", None):
        path = result.metrics.to_csv(args.metrics_csv)
        print(f"metrics written to {path}")
    return text


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec.from_file(args.config).validate()
    except SpecError as error:
        print(f"{args.config}: INVALID", file=sys.stderr)
        print(error, file=sys.stderr)
        return 1
    print(f"{args.config}: OK")
    print(spec.describe())
    derived = spec.to_trainer_config()
    print(f"derived TrainerConfig: model={derived.model!r} preset={derived.preset!r} "
          f"algorithm={derived.algorithm!r} world_size={derived.world_size} "
          f"epochs={derived.epochs}")
    sync = spec.resolved_sync()
    print(f"sync: {sync.describe()}")
    for note in sync.notes():
        print(f"note: {note}")
    faults = spec.resolved_faults()
    print(f"faults: {faults.describe()}")
    clients = spec.resolved_clients()
    print(f"clients: {clients.describe()}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> str:
    results = convergence_sweep(args.model, algorithms=args.algorithms,
                                world_sizes=args.workers, epochs=args.epochs)
    sections: List[str] = []
    for world_size, row in results.items():
        series = {name: data["metric"] for name, data in row.items()}
        epochs = next(iter(row.values()))["epochs"]
        metric_name = next(iter(row.values()))["metric_name"]
        sections.append(format_figure_series(
            series, epochs, x_label="epoch",
            title=f"{args.model}, {world_size} workers — {metric_name} per epoch"))
    text = "\n\n".join(sections)
    print(text)
    if args.output:
        path = save_json(results, args.output)
        print(f"results written to {path}")
    return text


def cmd_cost(args: argparse.Namespace) -> str:
    sweep = cost_sweep(models=args.models, algorithms=args.algorithms,
                       world_sizes=args.workers, cost_model=CostModel())
    sections: List[str] = []
    for model, entry in sweep.items():
        series = {name: [round(v * 1e3, 2) for v in data["iteration_s"]]
                  for name, data in entry["algorithms"].items()}
        sections.append(format_figure_series(series, entry["world_sizes"], x_label="workers",
                                             title=f"{model} — ms per iteration (Figure 4)"))
        efficiency_rows = [[name, f"{data['scaling_efficiency_at_8']:.2f}",
                            f"{data['communication_bits']:,.0f}"]
                           for name, data in entry["algorithms"].items()]
        sections.append(format_table(["algorithm", "scaling efficiency @8", "bits/worker/iter"],
                                     efficiency_rows, title=f"{model} — Table 2 quantities"))
    text = "\n\n".join(sections)
    print(text)
    if args.output:
        path = save_json(sweep, args.output)
        print(f"results written to {path}")
    return text


def cmd_compare(args: argparse.Namespace) -> str:
    gradient = (np.random.default_rng(args.seed).standard_normal(args.size) * 0.01
                ).astype(np.float32)
    rows = []
    for name in list_compressors():
        compressor = get_compressor(name)
        seconds = median_time(lambda c=compressor: c.compress(gradient.copy()), repeats=3)
        error = single_shot_error(get_compressor(name), gradient.copy())
        rows.append([name, compressor.exchange.value,
                     f"{compressor.wire_bits(args.size):,.0f}",
                     f"{seconds * 1e3:.2f}", f"{error:.3f}"])
    text = format_table(
        ["compressor", "exchange", "bits/worker", "compress (ms)", "single-shot error"],
        rows, title=f"Compressor comparison on an n={args.size:,} gradient")
    print(text)
    return text


def cmd_bench_backend(args: argparse.Namespace) -> str:
    from repro.analysis.perf_backend import (
        format_benchmark,
        run_backend_benchmark,
        write_benchmark_json,
    )

    result = run_backend_benchmark(model=args.model, algorithm=args.algorithm,
                                   world_size=args.workers,
                                   workers=args.backend_workers,
                                   iterations=args.iterations,
                                   repeats=args.repeats)
    text = format_benchmark(result)
    print(text)
    if args.output:
        path = write_benchmark_json(result, args.output)
        print(f"appended run to {path}")
    return text


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    outcome = args.handler(args)
    return outcome if isinstance(outcome, int) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
