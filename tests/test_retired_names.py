"""Retired designs stay retired: one table of the names they leave behind.

Each row is one design that was replaced — the code it names must not come
back.  A row lists what stays gone, the change that retired it, and its
searches: a pattern, the paths it is searched in and, optionally, an
allowed location.  The test fails naming the row and every offending line.

A search reads like ``grep -rnE``: ``pattern`` is a regular expression
matched against each line (``literal`` rows match a fixed string); a path
is a file, a glob, or a directory searched recursively (every file, or
``*.py`` files only with ``python_only``); ``exclude`` drops a match whose
``path:line:text`` contains it.  Bytecode caches are derived from the
sources already searched and are skipped, as is this file, which holds the
patterns.
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Search:
    pattern: str
    paths: Tuple[str, ...]
    exclude: Optional[str] = None
    python_only: bool = False
    literal: bool = False


@dataclass(frozen=True)
class Retired:
    gone: str
    retired_by: str
    searches: Tuple[Search, ...]


RETIRED: Tuple[Retired, ...] = (
    # World state has one owner: no per-rank optimizer dialect in src/, and
    # checkpoint.py stays two loops that name no subsystem (owners register
    # themselves in DistributedTrainer._build).
    Retired("the per-rank optimizer / checkpoint dialect",
            "2c2cef1 World state has one owner", (
                Search(r"bind_flat|step_flat|\.optimizers\b", ("src/",), python_only=True),
                Search(r"sim_engine|lockstep_sim|fault_injector|population|parameter_codec"
                       r"|is_async|hasattr|getattr", ("src/repro/core/checkpoint.py",)),
            )),
    # One compatibility check: every problems() / compatibility_problems()
    # reads the RunFeatures record, so no call site hand-threads the facts
    # it holds as keywords.
    Retired("the per-check keyword dialect",
            "896670a One compatibility check", (
                Search(r"faults_active=|is_async=|sync_strategy=|sync_period=", ("src/",),
                       python_only=True),
            )),
    # One executor per model family: record/replay is not an option, so
    # only the spec's retired-key reader may name `taped`.
    Retired("the taped option",
            "8f6014f Retire taped as a runtime option", (
                Search(r'taped=|\.taped\b|"taped"', ("src/",), exclude="core/spec.py",
                       python_only=True),
            )),
    # One BatchNorm op: both layers, per replica and stacked, call
    # functional.batch_norm; the composite mean/var graph does not return.
    Retired("the composite BatchNorm",
            "02865fd One fused BatchNorm op", (
                Search(r"_channel_var|var_spatial|mean\(axis=\(1, 3, 4\)",
                       ("src/repro/nn/normalization.py",)),
            )),
    # One LSTM op: every layer runs a whole BPTT window through
    # functional.lstm (a single step is its T = 1 call); the per-step
    # composite cell graph lives in tests/test_lstm_op.py as the oracle.
    Retired("the composite LSTM cell",
            "a99601e One fused LSTM layer op", (
                Search(r"\.sigmoid\(\)|flush_subnormals|Tensor\.stack",
                       ("src/repro/nn/recurrent.py",)),
                Search("flush_subnormals", ("src/",), literal=True),
            )),
    # One kernel per compressor: only the base class defines the per-rank
    # methods (a batch of one); the per-rank bodies live in
    # tests/reference_compressors.py as the oracle.
    Retired("per-rank compressor bodies",
            "d2e9c90 One kernel per compressor", (
                Search(r"^\s+def (compress|decompress|decompress_gathered)\(",
                       ("src/repro/compress/*.py",), exclude="/base.py:"),
                Search("gathered_rank_invariant", ("src/",), literal=True),
            )),
    # Compression time is priced, never measured: the simulated clock and
    # CostModel share one analytic term, so no strategy times a kernel and
    # no flag keeps measured time off the clock.  Every run has a clock, so
    # the trainer, its callbacks, the timeline and the simulators read no
    # host timer, and the measured second time base stays gone.
    Retired("measured time on the simulated clock",
            "ba2b73d Price compression time analytically; "
            "77c583d Give every run one clock", (
                Search(r"perf_counter|^import time", ("src/repro/sync/", "src/repro/sim/")),
                Search(r"perf_counter|^import time",
                       ("src/repro/core/trainer.py", "src/repro/core/callbacks.py",
                        "src/repro/core/timeline.py")),
                Search(r"TimelineCallback|wall_compute_time_s|\bper_iteration\b", ("src/",)),
                Search(r"\.deterministic\b|deterministic =", ("src/", "tests/")),
                Search(r"CompressionTimingEstimator|use_measured_compression",
                       ("src/", "tests/", "benchmarks/")),
            )),
    # One training path: every gradient comes from an executor
    # build_replica_executor builds; the eager per-replica step is the test
    # oracle's (tests/reference_trainer.py), never a src/ path.
    Retired("the per-replica training step in src/",
            "513e2ae Route every gradient through an executor", (
                Search("_replica_step", ("src/",), literal=True),
            )),
    # One executor per run: the event schedule computes its gradient waves
    # through trainer.executor; the one-rank-per-event schedule with its own
    # per-rank executors is the test oracle's (tests/reference_engine.py).
    Retired("an executor of the async engine's own",
            "41b1916 Wave-batched async gradients", (
                Search(r"RankExecutors|build_replica_executor", ("src/repro/sim/",)),
            )),
    # One simulator, two schedules: sim/engine.py's Simulator owns every
    # run's clock and the only epoch loop, so the lockstep class and the
    # trainer's own loop stay gone; and `import repro` loads no SciPy
    # (Gaussian-K's quantile is the standard library's NormalDist).
    Retired("a second simulator (and SciPy)",
            "1482cc6 One simulator, two schedules", (
                Search(r"LockstepSimulator|_train_lockstep", ("src/",)),
                Search("scipy", ("src/",), literal=True),
            )),
    # Compressors compute only what they send: no per-rank compression
    # statistics ride along the exchange (`repro compare` measures its
    # single-shot error with repro.analysis.convergence.single_shot_error).
    Retired("compression statistics in the kernels",
            "9821653 Compressors compute only what they send", (
                Search(r"CompressionStats|_record_batch|\.stats\.record", ("src/",)),
            )),
    # A checkpoint holds each generator's and batch stream's state, and
    # loading sets it: no draw count is saved and no stream is replayed.
    Retired("resume replays",
            "9fedf09 Checkpoints hold state, not history", (
                Search(r"step_counts|batches_consumed", ("src/",)),
            )),
    # One forward per module: a layer or model implements forward_batched,
    # and module(x) is Module.forward, its P = 1 call over a stack of one;
    # the four per-replica ops are one-call wrappers of their *_batched op.
    # The former bodies live in tests/reference_forward.py as the oracle.
    Retired("the per-replica forward bodies",
            "a4cd3c3 Give every module one forward body", (
                Search("def forward(", ("src/repro/models/",), literal=True),
                Search(r'_make\(.*"(conv2d|max_pool2d|embedding|cross_entropy)"',
                       ("src/repro/tensor/functional.py",)),
                Search(r"_peephole|fused_chains|def reshaped", ("src/",)),
            )),
    # One membership for every world: a world always has a Membership (all
    # ranks alive without a fault layer), every exchange is written once
    # over its alive ranks, and Membership.gather / scatter are the only
    # place the all-alive case is named.
    Retired("a healthy-world fork of the exchanges",
            "One membership for every world", (
                Search(r"_active_membership|alive is (not )?None|membership is (not )?None",
                       ("src/repro/sync/", "src/repro/comm/",
                        "src/repro/compress/param_delta.py")),
                Search(r"_NO_RANKS|_dead_ranks\(", ("src/repro/core/trainer.py",)),
            )),
    # One graph query: each topology's neighbors() takes the alive mask, and
    # the static graph is its all-alive answer.
    Retired("the alive_* twins of the topology queries",
            "One membership for every world", (
                Search(r"def alive_", ("src/repro/comm/topology.py",)),
            )),
    # No run broadcasts, reduce-scatters or picks the naive allreduce; the
    # naive allreduce is the ring's test oracle (tests/reference_collectives.py).
    Retired("the unused collectives and the ring/naive allreduce knob",
            "One membership for every world", (
                Search(r'def (broadcast|reduce_scatter|allreduce_naive)\b|use_ring_allreduce'
                       r'|"(broadcast|reduce_scatter)"',
                       ("src/repro/comm/collectives.py", "src/repro/comm/inprocess.py",
                        "src/repro/comm/network_model.py")),
            )),
    # One batch stream per client: a sampled cohort's batch jumps its
    # client's generator to the iteration; no generator is built per
    # (client, iteration).
    Retired("a fresh generator per client per iteration",
            "The federated control plane in batch calls", (
                Search(r'new_rng\("client_batch".*iteration', ("src/repro/federated/",)),
            )),
    # One top-k kernel: every sparsifier selects through
    # compress/base.py::top_k_indices (a sampled floor, then the candidates'
    # partition); the full-row partition stays in tests/ as the oracle.
    Retired("full-row top-k selection",
            "Top-K at its algorithmic cost", (
                Search(r"argpartition\(np\.abs", ("src/repro/compress/",)),
            )),
    # The PTB corpus walks per-state successor lists with bisect_left; the
    # dense V x V matrix with its per-token searchsorted stays in
    # tests/reference_synthetic_text.py as the oracle.  The language model's
    # decoder and loss are one lm_head node, so the LM executor takes losses,
    # not logits, from the model (the classifier executor keeps
    # cross_entropy_batched(logits, target_buf)).
    Retired("the per-token searchsorted walk and the LM executor's composite loss",
            "LSTM-PTB end to end at its cost", (
                Search(r"np\.searchsorted\(cumulative|np\.zeros\(\(vocab, vocab\)",
                       ("src/repro/data/",)),
                Search("logits, new_state", ("src/repro/core/batched_replicas.py",),
                       literal=True),
            )),
)


def searched_files(search: Search) -> Iterator[Path]:
    for entry in search.paths:
        if any(char in entry for char in "*?["):
            candidates = sorted(ROOT.glob(entry))
        elif (ROOT / entry).is_dir():
            candidates = sorted(path for path in (ROOT / entry).rglob("*")
                                if "__pycache__" not in path.parts)
        else:
            candidates = [ROOT / entry]
        for path in candidates:
            if not path.is_file() or path.resolve() == Path(__file__).resolve():
                continue
            if search.python_only and path.suffix != ".py":
                continue
            yield path


def matches(search: Search) -> List[str]:
    pattern = re.compile(re.escape(search.pattern) if search.literal else search.pattern)
    found = []
    for path in searched_files(search):
        relative = path.relative_to(ROOT).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        for number, line in enumerate(text.splitlines(), start=1):
            if not pattern.search(line):
                continue
            hit = f"{relative}:{number}:{line}"
            if search.exclude is None or search.exclude not in hit:
                found.append(hit)
    return found


@pytest.mark.parametrize("row", RETIRED, ids=[row.gone for row in RETIRED])
def test_retired_names_stay_gone(row):
    hits = [hit for search in row.searches for hit in matches(search)]
    assert not hits, (f"{row.gone} (retired by {row.retired_by}) is back:\n"
                      + "\n".join(hits))


def test_every_searched_path_exists():
    """A search over a path that moved would pass by finding nothing."""
    missing = [entry for row in RETIRED for search in row.searches
               for entry in search.paths
               if not (any(char in entry for char in "*?[") or (ROOT / entry).exists())]
    assert not missing
