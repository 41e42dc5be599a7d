"""Benchmark-side tracing: timing wrappers around the layers' public entry points.

Nothing under ``src/`` changes.  :class:`Tracer` swaps a public attribute
(an instance method, a class method, or a function as imported into the
module that calls it) for a wrapper that records one span per call, and puts
the originals back in :meth:`Tracer.remove`.  Spans stay in memory; when the
run ends :func:`rollup` folds them into per-name calls / total / self time and
:func:`write_chrome_trace` dumps them in Chrome ``trace_event`` form.

Named ``tracing`` (not ``trace``) so that putting this directory on
``sys.path`` does not shadow the standard library's ``trace`` module.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.backends import EXECUTION_BACKENDS
from repro.compress.base import Compressor
from repro.compress.registry import COMPRESSORS
from repro.core import checkpoint as checkpoint_module
from repro.core import trainer as trainer_module
from repro.core.callbacks import Callback
from repro.data.dataloader import DataLoader
from repro.sim import engine as engine_module

# Span record layout (a list, so the end stamp can be filled in on close).
NAME, START, END, PARENT, ITERATION = range(5)


class Tracer:
    """Records spans from wrappers it installs, and can uninstall them."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, iteration]`` per call, in
        #: open order; times are ``perf_counter`` seconds.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Iterations completed so far (stamped by :class:`StampCallback`),
        #: i.e. the 0-based iteration a span opened in.
        self.iteration = 0
        #: ``(owner, attr, had own attribute, original)`` per installed wrapper.
        self.patched: List[tuple] = []

    def traced(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return wrapper

    def traced_iterator(self, name: str, fn: Callable) -> Callable:
        """Wrap a function returning an iterator so each ``next`` is a span
        (generators do their work in ``next``, not in the call)."""

        def wrapper(*args, **kwargs):
            return _TimedIterator(self.traced(name, fn(*args, **kwargs).__next__))

        return wrapper

    def patch(self, owner: object, attr: str, name: str,
              wrap: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (instance, class or module attribute)."""
        wrap = wrap or self.traced
        own = vars(owner)
        had_own = attr in own
        original = own.get(attr)
        if isinstance(original, classmethod):
            replacement = classmethod(wrap(name, original.__func__))
        else:
            replacement = wrap(name, getattr(owner, attr))
        setattr(owner, attr, replacement)
        self.patched.append((owner, attr, had_own, original))

    def remove(self) -> None:
        """Put every patched attribute back exactly as it was."""
        while self.patched:
            owner, attr, had_own, original = self.patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class _TimedIterator:
    def __init__(self, timed_next: Callable):
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class StampCallback(Callback):
    """The benchmark's own view of the run: one wall stamp and the training
    loss per ``on_iteration_end``; also tells the tracer which iteration
    subsequent spans belong to."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.stamps: List[float] = []
        self.losses: List[float] = []

    def on_iteration_end(self, state) -> None:
        self.stamps.append(perf_counter())
        self.losses.append(state.loss)
        self.tracer.iteration = len(self.stamps)


def install_import_time_wrappers(tracer: Tracer) -> None:
    """Wrappers for calls looked up on a class or module — needed before the
    trainer is constructed (its constructor loads data and builds the world)."""
    for cls in {Compressor, *COMPRESSORS.values()}:
        for attr in ("compress_batch", "decompress_batch"):
            if attr in vars(cls):
                tracer.patch(cls, attr, f"compress.{attr}")
    for module in (trainer_module, engine_module):
        tracer.patch(module, "sgd_flat_update", "optim.step_flat")
        tracer.patch(module, "lars_flat_update", "optim.step_flat")
    tracer.patch(trainer_module, "get_dataset", "data.get_dataset")
    tracer.patch(checkpoint_module, "save_checkpoint", "checkpoint.save")
    for cls in set(EXECUTION_BACKENDS.values()):
        for attr in ("create_world", "create_executor"):
            if attr in vars(cls):
                tracer.patch(cls, attr, f"backends.{attr}")
    tracer.patch(DataLoader, "__iter__", "data.next_batch", tracer.traced_iterator)


def install_trainer_wrappers(tracer: Tracer, trainer) -> None:
    """Wrappers on the constructed trainer's layer objects."""
    targets = [
        (trainer, "evaluate", "trainer.evaluate"),
        (trainer.executor, "forward_backward", "executor.forward_backward"),
        (trainer.sync_strategy, "exchange_batched", "sync.exchange"),
        (trainer.sync_strategy, "post_step", "sync.post_step"),
        (trainer.sync_strategy, "finalize", "sync.finalize"),
        (trainer.sync_strategy, "worker_step", "sync.worker_step"),
        (trainer.sync_strategy.parameter_codec, "encode", "compress.param_delta.encode"),
        (trainer.sync_strategy.parameter_codec, "decode_deltas", "compress.param_delta.decode"),
        (trainer.population, "begin_round", "federated.begin_round"),
        (trainer.population, "draw_batches", "federated.draw_batches"),
        (trainer.lockstep_sim, "record_iteration", "sim.lockstep.record_iteration"),
        (trainer.sim_engine, "run", "sim.engine.run"),
    ]
    for attr in ("allreduce", "allgather", "neighbor_exchange", "broadcast",
                 "point_to_point"):
        targets.append((trainer.world, attr, f"comm.{attr}"))
    for attr in ("down_interval", "is_down", "message_dropped", "extra_stall",
                 "discovery_penalty_s", "retransmit_penalty_s",
                 "settle_permanent_downtime"):
        targets.append((trainer.fault_injector, attr, "faults.query"))
    for owner, attr, name in targets:
        if owner is not None and hasattr(owner, attr):
            tracer.patch(owner, attr, name)
    for shard in getattr(trainer, "lm_shards", []):
        tracer.patch(shard, "batches", "data.next_batch", tracer.traced_iterator)


def rollup(spans: List[list], window_start: float, window_end: float
           ) -> Dict[str, Dict[str, float]]:
    """Per-name ``calls`` / ``total_s`` / ``self_s`` inside a time window.

    Each span is clipped to the window (a span straddling the end of warm-up
    counts only its later part).  Self time is the clipped duration minus the
    clipped durations of the span's direct children, so self times add up to
    the time covered by top-level spans.  ``calls`` and ``total_s`` skip a
    span nested directly in one of the same name (an override delegating to
    its base class is one call, not two).
    """
    clipped = [max(0.0, min(span[END], window_end) - max(span[START], window_start))
               for span in spans]
    children = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]] += clipped[index]
    table: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span[END] <= window_start or span[START] >= window_end:
            continue
        row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["self_s"] += clipped[index] - children[index]
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] != span[NAME]:
            row["calls"] += 1
            row["total_s"] += clipped[index]
    return table


def write_chrome_trace(spans: List[list], path: Path) -> None:
    """Dump the spans as complete (``ph: X``) Chrome ``trace_event`` records;
    open the file in ``chrome://tracing`` or https://ui.perfetto.dev."""
    origin = spans[0][START] if spans else 0.0
    events = [{"name": span[NAME], "ph": "X", "pid": 0, "tid": 0,
               "ts": round((span[START] - origin) * 1e6, 3),
               "dur": round((span[END] - span[START]) * 1e6, 3),
               "args": {"id": index, "parent": span[PARENT],
                        "iteration": span[ITERATION]}}
              for index, span in enumerate(spans)]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
