"""One simulator, two schedules: every run's clock and its one epoch loop.

:class:`Simulator` owns the :class:`VirtualClock`, the bound compute-time
model, the :class:`SimReport`, the :class:`IterationTimeline`, the ``sim_``
checkpoint keys and the only epoch loop.  Its schedule, picked by whether
the strategy ``is_async``, supplies what differs: steps per epoch, where a
resumed run starts, per-epoch setup and teardown, and one step.

* :class:`BarrierSchedule` (synchronous strategies): fault phase →
  Algorithm 1's four stages on every rank → price.  Every rank draws its
  step time, the slowest survivor gates the barrier, and the barrier plus
  the report's compression, communication and aggregation time and the
  fault time is scheduled on the clock and popped.
* :class:`EventSchedule` (async strategies): pop the earliest ``(time,
  rank)`` completion → fault gate → gradient wave → the strategy's
  :meth:`worker_step` (real numerics, α–β-priced traffic) → schedule the
  rank's next completion at ``event_time + compression + comm + stall +
  compute``.  ``async_ps`` and ``easgd`` write only the event rank's row,
  so a rank's next gradient depends only on its row, its next batch and
  its carried BPTT state: one call of the trainer's executor computes the
  next gradient of every rank without one, and each stays pending in its
  gradient row until its own event.  An epoch is ``world_size ×
  iterations_per_epoch`` worker steps in event order, so fast ranks
  contribute more steps — how asynchronous training turns straggler slack
  into progress.

Every term on the clock is modelled, none measured (compression is priced
by :data:`~repro.core.cost_model.DEFAULT_COMPRESSION_MODEL`), so simulated
time is a pure function of the spec and its seeds.  The checkpoint keys hold
state, never history: the clock, in-flight events, the compute model's
generator states, every rank's batch stream (its latest pass's generator
words and cursor), the report and the timeline.  A resumed run sets them and
continues at ``divmod(total_steps, steps_per_epoch)``; nothing is replayed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.core.batched_replicas import stack_rows
from repro.core.flat_buffer import RowSnapshot
from repro.core.timeline import IterationTimeline
from repro.sim.clock import VirtualClock
from repro.sim.compute import ComputeTimeModel
from repro.sim.report import SimReport
from repro.optim.lars import LARS, lars_flat_update
from repro.optim.sgd import sgd_flat_update

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.trainer import DistributedTrainer

#: Checkpoint key -> (:class:`SimReport` field, dtype) saved by both schedules.
_REPORT_KEYS = {"steps_per_rank": ("steps_per_rank", np.int64),
                "busy_s": ("busy_s_per_rank", np.float64),
                "stall_s": ("stall_s_per_rank", np.float64),
                "comm_s": ("comm_s_per_rank", np.float64),
                "epoch_marks": ("epoch_time_s", np.float64)}


class Simulator:
    """The run's clock, its pricing and its one epoch loop."""

    def __init__(self, trainer: "DistributedTrainer",
                 compute_model: ComputeTimeModel, clock_seed: int):
        self.trainer = trainer
        self.compute_model = compute_model
        self.clock_seed = int(clock_seed)
        self.world_size = trainer.config.world_size
        compute_model.bind(self.world_size, self.clock_seed)
        self.clock = VirtualClock()
        #: The trainer's :class:`repro.faults.injector.FaultInjector`, or
        #: ``None`` for a fault-free run.
        self.injector = trainer.fault_injector
        self.report = SimReport(
            compute_model=compute_model.to_dict(), clock_seed=self.clock_seed,
            world_size=self.world_size,
            strategy=trainer.sync_strategy.name if trainer.is_async else "lockstep")
        if self.injector is not None:
            self.report.fault = self.injector.report
        self.timeline = IterationTimeline()
        #: Completed steps: barrier iterations, or worker events.
        self.total_steps = 0
        #: The losses of the current epoch's steps so far.
        self.epoch_losses: List[float] = []
        self._pending_draws: Optional[List] = None
        self.schedule = EventSchedule(self) if trainer.is_async else BarrierSchedule(self)

    @property
    def now(self) -> float:
        """The virtual clock's current time (seconds)."""
        return self.clock.now

    # ------------------------------------------------------------------ #
    # the epoch loop
    # ------------------------------------------------------------------ #
    def run(self, state) -> None:
        """Train the configured epochs; the schedule supplies each step."""
        trainer = self.trainer
        callbacks = trainer.callbacks
        schedule = self.schedule
        first_epoch, done = schedule.start()
        for epoch in range(first_epoch, trainer.config.epochs):
            state.epoch = epoch
            callbacks.on_epoch_start(state)
            schedule.begin_epoch()
            while done < schedule.steps_per_epoch:
                step = schedule.step(state, epoch, done)
                if step is None:        # the fault layer stopped the run
                    break
                done += 1
                self.total_steps += 1
                trainer._global_iteration += 1
                state.global_iteration = trainer._global_iteration
                state.loss, state.lr, state.report = step
                self.epoch_losses.append(state.loss)
                callbacks.on_iteration_end(state)
                if state.stop_requested:
                    break
            done = 0
            self.report.record_epoch_mark(self.clock.now)
            schedule.end_epoch()
            state.epoch = epoch
            losses, self.epoch_losses = self.epoch_losses, []
            state.epoch_loss = float(np.mean(losses)) if losses else float("nan")
            callbacks.on_epoch_end(state)
            if state.stop_requested:
                break
        schedule.finish()

    def begin_iteration(self, state, epoch: int, done: int) -> float:
        """Set the progress fields and fire ``on_iteration_start``; returns
        the fractional epoch that drives the learning rate."""
        state.epoch = epoch
        state.iteration = done
        state.epoch_progress = epoch + done / self.schedule.steps_per_epoch
        self.trainer.callbacks.on_iteration_start(state)
        return state.epoch_progress

    # ------------------------------------------------------------------ #
    # pricing
    # ------------------------------------------------------------------ #
    def draw_iteration(self) -> List:
        """Every rank's ``(compute_s, stall_s)`` for the coming barrier, drawn
        once: the fault phase may peek (under the ``intermittent_dropout``
        bridge a stall means "absent"), and :meth:`record_iteration` prices
        the same draws."""
        if self._pending_draws is None:
            self._pending_draws = [self.compute_model.step_time(rank)
                                   for rank in range(self.world_size)]
        return self._pending_draws

    def record_iteration(self, sync_report, alive: Optional[List[int]] = None,
                         extra_s: float = 0.0) -> float:
        """Price one barrier iteration on the clock; returns its duration:
        the slowest surviving rank's ``compute + stall``, then the report's
        compression, communication and aggregation time and the fault
        layer's ``extra_s``."""
        draws = self.draw_iteration()
        self._pending_draws = None
        # Dead ranks are absent from the barrier: the slowest *survivor*
        # gates the collective (their draw is still consumed, keeping the
        # compute-model streams aligned with a healthy run).
        ranks = range(self.world_size) if alive is None else alive
        barrier = max((draws[r][0] + draws[r][1] for r in ranks), default=0.0)
        overhead = (sync_report.compression_time_s + sync_report.comm_time_s
                    + sync_report.aggregation_time_s)
        extra_s = float(extra_s)
        duration = barrier + overhead + extra_s
        self.clock.schedule(self.clock.now + duration, -1)
        when, _ = self.clock.pop()
        self.timeline.record(barrier, sync_report, extra_s)
        for rank in ranks:
            self.report.record_schedule(rank, *draws[rank])
            self.report.record_step(rank, overhead)
        self.report.record_event(when, -1)
        return duration

    def schedule_rank(self, rank: int, start: float) -> float:
        """Draw ``rank``'s next event step and schedule its completion;
        returns the drawn ``compute + stall`` seconds."""
        compute_s, stall_s = self.compute_model.step_time(rank)
        if self.injector is not None and self.injector.affects_timing:
            stall_s += self.injector.extra_stall(rank)
        self.report.record_schedule(rank, compute_s, stall_s)
        self.clock.schedule(start + stall_s + compute_s, rank)
        return stall_s + compute_s

    # ------------------------------------------------------------------ #
    # engine protocol consumed by AsyncStrategy implementations
    # ------------------------------------------------------------------ #
    @property
    def param_matrix(self) -> np.ndarray:
        return self.trainer.flat_world.param_matrix

    @property
    def grad_matrix(self) -> np.ndarray:
        return self.trainer.flat_world.grad_matrix

    def flat_update(self, params: np.ndarray, grads: np.ndarray, lr: float, *,
                    velocity: np.ndarray, scratch: np.ndarray) -> None:
        """One fused optimizer step with the trainer's hyperparameters.

        Used both for local worker rows and for a parameter server's own
        ``(1, n)`` state, so server and workers share one update rule.
        """
        trainer = self.trainer
        reference = trainer.optimizer
        if isinstance(reference, LARS):
            layout = trainer.flat_world.layout
            lars_flat_update(params, grads, layout.offsets[:-1], layout.sizes,
                             lr, reference.momentum, reference.weight_decay,
                             reference.trust_coefficient, reference.eps,
                             velocity=velocity, scratch=scratch)
        else:
            sgd_flat_update(params, grads, lr, reference.momentum,
                            reference.weight_decay, reference.nesterov,
                            velocity=velocity, scratch=scratch)

    def apply_local_step(self, rank: int, lr: float) -> None:
        """Local optimizer step on one rank's flat row (EASGD-style)."""
        trainer = self.trainer
        world = trainer.flat_world
        self.flat_update(world.param_matrix[rank:rank + 1],
                         world.grad_matrix[rank:rank + 1], lr,
                         velocity=trainer._velocity_matrix[rank:rank + 1],
                         scratch=trainer._step_scratch[rank:rank + 1])

    def push_dropped(self, rank: int) -> bool:
        """Whether ``rank``'s next upstream message is lost on the wire.

        Consulted by the async strategies before applying a push/elastic
        exchange; consumes one deterministic per-rank message draw.
        """
        injector = self.injector
        if injector is None or not injector.affects_messages:
            return False
        return injector.message_dropped(rank)

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        arrays = {"clock_now": np.array([self.clock.now], dtype=np.float64),
                  "draws": self.compute_model.generator_states(),
                  "epoch_losses": np.array(self.epoch_losses, dtype=np.float64)}
        for key, (name, dtype) in _REPORT_KEYS.items():
            arrays[key] = np.array(getattr(self.report, name), dtype=dtype)
        for key, value in self.timeline.state_arrays().items():
            arrays["timeline_" + key] = value
        arrays.update(self.schedule.state_arrays())
        return arrays

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        now = float(arrays["clock_now"][0])
        self.clock.restore(now, {})
        self.report.simulated_time_s = now
        self.compute_model.restore(arrays["draws"])
        self.epoch_losses = arrays["epoch_losses"].tolist()
        for key, (name, _) in _REPORT_KEYS.items():
            setattr(self.report, name, arrays[key].tolist())
        self.timeline.load_state_arrays({key[len("timeline_"):]: value
                                         for key, value in arrays.items()
                                         if key.startswith("timeline_")})
        self.schedule.load_state_arrays(arrays)


class Schedule:
    """What a schedule supplies to :meth:`Simulator.run`: ``start()`` sets
    ``steps_per_epoch`` and returns ``(first epoch, steps already done in
    it)``; ``step(state, epoch, done)`` → ``(loss, lr, report)``, or ``None``
    when the fault layer stopped the run; its own checkpoint keys; and the
    optional hooks below."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.trainer = sim.trainer

    def buffers(self, rank: int) -> List[np.ndarray]:
        """``rank``'s module buffers as of its last step — what a checkpoint
        holds."""
        return [buffer for _, buffer in self.trainer.replicas[rank].named_buffers()]

    def begin_epoch(self) -> None:
        """Per-epoch setup, after ``on_epoch_start``."""

    def end_epoch(self) -> None:
        """Per-epoch teardown, before ``on_epoch_end``."""

    def finish(self) -> None:
        """Run teardown, after the last epoch."""

    def _stream_arrays(self, held=0) -> Dict[str, np.ndarray]:
        """Every rank's batch stream: the batches its latest pass has yielded,
        less ``held`` (per rank, drawn but not yet consumed), and for
        loaders the generator words that pass's order was drawn from.  A
        sampled cohort's batch is a function of (seed, client, iteration),
        so it writes no keys."""
        streams = self.trainer._streams()
        if not streams:
            return {}
        cursor = np.array([stream.cursor for stream in streams], dtype=np.int64)
        arrays = {"stream_cursor": cursor - held}
        if self.trainer.spec.task != "language_model":
            arrays["stream_words"] = np.stack([loader.pass_words for loader in streams])
        return arrays

    def _restore_streams(self, arrays: Dict[str, np.ndarray], resume: bool) -> None:
        """Put every stream back on its saved pass; with ``resume`` each
        rank's next pass continues it, otherwise a new pass starts."""
        for rank, stream in enumerate(self.trainer._streams()):
            cursor = int(arrays["stream_cursor"][rank])
            if "stream_words" in arrays:
                stream.restore_pass(arrays["stream_words"][rank], cursor, resume)
            else:
                stream.restore_pass(cursor, resume)


class BarrierSchedule(Schedule):
    """Synchronous strategies: every rank steps at once, and the slowest
    surviving rank gates the barrier."""

    def __init__(self, sim: Simulator):
        super().__init__(sim)
        self._iterators = None
        self._states = None

    def start(self) -> tuple:
        self.steps_per_epoch = self.trainer.iterations_per_epoch
        return self._resume_point()

    def _resume_point(self) -> tuple:
        """``(epoch, iteration)`` the next ``train()`` starts at: where an
        interrupted run stopped, or ``(0, 0)`` for a fresh or finished one
        (train() then runs the whole schedule again)."""
        trainer = self.trainer
        epoch, done = divmod(self.sim.total_steps, trainer.iterations_per_epoch)
        return (0, 0) if epoch >= trainer.config.epochs else (epoch, done)

    def begin_epoch(self) -> None:
        # Every epoch starts new passes, abandoning the rest of the last
        # ones; a file written mid-epoch continues its passes instead.
        self._iterators = self.trainer._epoch_iterators()
        self._states = None             # BPTT state restarts with the epoch

    def step(self, state, epoch: int, done: int) -> Optional[tuple]:
        trainer = self.trainer
        progress = self.sim.begin_iteration(state, epoch, done)
        if trainer.population is not None:
            # Round boundaries sit right after the previous round's
            # parameter averaging; the cohort (and its slot state) must be
            # in place before the gradients are computed.
            trainer.population.begin_round(trainer)
        alive, extra_s = self._fault_phase(state)
        if state.stop_requested:
            return None
        batches = trainer._next_batches(self._iterators)
        G, loss, self._states = trainer._gradients(batches, self._states)
        new, report = trainer._exchange(G)
        lr = trainer._apply(new, progress)
        report = trainer._parameter_phase(report)
        # Price the iteration before callbacks run so metrics rows see the
        # advanced simulated clock.
        duration = self.sim.record_iteration(report, alive=alive, extra_s=extra_s)
        if alive is not None:
            # Mean training loss over the surviving ranks only.
            loss = float(np.mean(trainer._last_losses[alive]))
            for rank in self.sim.injector.membership.dead_ranks():
                self.sim.injector.report.record_downtime(rank, duration)
        return loss, lr, report

    def _fault_phase(self, state) -> tuple:
        """The barrier's fault gate, at the iteration boundary.

        Rejoins run first (a rank whose outage ended catches up through a
        priced dense re-sync before the iteration), then new outages flip
        membership — model-driven schedules plus ``intermittent_dropout``
        compute stalls bridged to absences — each charging the barrier's
        timeout + bounded-backoff discovery penalty.  Message-loss models
        price reliable retransmission of the survivors' lockstep sends.

        Returns ``(alive_ranks_or_None, extra_simulated_seconds)``; with no
        injector this is ``(None, 0.0)`` and nothing else runs.  Each rank's
        outage is looked up once at ``now`` (and once more at the horizon
        when the whole world idles): the answer depends only on (rank, t).
        """
        injector = self.sim.injector
        if injector is None:
            return None, 0.0
        trainer = self.trainer
        membership = injector.membership
        now = self.sim.clock.now
        extra_s = 0.0
        world_size = self.sim.world_size
        intervals = [injector.down_interval(rank, now) for rank in range(world_size)]
        for rank in range(world_size):
            # Not while still inside its outage (or crashed for good).
            if not membership.is_alive(rank) and intervals[rank] is None:
                extra_s += trainer._rejoin_rank(rank)
        bridged = set()
        if injector.bridge_compute_stalls:
            draws = self.sim.draw_iteration()
            bridged = {rank for rank, (_, stall) in enumerate(draws)
                       if stall > 0.0}
        for rank in range(world_size):
            if not membership.is_alive(rank):
                injector.report.lost_steps += 1
                continue
            if intervals[rank] is not None or rank in bridged:
                membership.set_alive(rank, False)
                injector.report.record_down(rank)
                injector.report.lost_steps += 1
                extra_s += injector.discovery_penalty_s()
        if membership.num_alive == 0:
            # The whole world is down at once.  Bridged compute dropouts
            # last a single iteration, so those ranks return immediately;
            # otherwise the world idles until the first scheduled outage
            # ends, and only a permanent all-crash (no finite end anywhere)
            # stops the run instead of deadlocking a collective over zero
            # participants.
            if None not in intervals:
                ends = [end for _, end in intervals if math.isfinite(end)]
                if not ends:
                    state.stop_requested = True
                    return [], extra_s
                horizon = min(ends)
                extra_s += horizon - now
                now = horizon
                intervals = [injector.down_interval(rank, now)
                             for rank in range(world_size)]
            for rank in range(world_size):
                if intervals[rank] is None:
                    extra_s += trainer._rejoin_rank(rank)
        if injector.affects_timing:
            # slow_node keeps the legacy timing-only reading: per-rank
            # stalls run in parallel and the slowest gates the barrier.
            extra_s += max((injector.extra_stall(rank)
                            for rank in membership.alive_ranks()), default=0.0)
        if injector.affects_messages:
            # Per-rank retransmit ladders run in parallel; the unluckiest
            # survivor's backoff gates the barrier.
            extra_s += max((injector.retransmit_penalty_s(rank)
                            for rank in membership.alive_ranks()), default=0.0)
        alive = None if membership.all_alive else membership.alive_ranks()
        return alive, extra_s

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {"iterations": np.array([self.sim.total_steps], dtype=np.int64),
                **self._stream_arrays()}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self.sim.total_steps = int(arrays["iterations"][0])
        _, done = self._resume_point()
        self._restore_streams(arrays, resume=done > 0)


class EventSchedule(Schedule):
    """Async strategies: one step per completion event on the clock."""

    def __init__(self, sim: Simulator):
        super().__init__(sim)
        world_size = sim.world_size
        self._iterators = None
        #: Per rank: the batch drawn for its next step (kept until its event
        #: consumes it), whether its gradient row and loss hold that step's
        #: result, and whether its stream restarted on the draw.
        self._batches: List = [None] * world_size
        self._pending: List[bool] = [False] * world_size
        self._losses: List[float] = [0.0] * world_size
        self._restarted: List[bool] = [False] * world_size
        #: Per rank: its module buffers (BatchNorm running statistics,
        #: updated in place by every step), and the wave snapshot holding
        #: their values before its pending step.
        self._buffers = [[buffer for _, buffer in replica.named_buffers()]
                         for replica in self.trainer.replicas]
        self._rollback: List[Optional[RowSnapshot]] = [None] * world_size
        #: Carried BPTT state in the executor's own format, as the last wave
        #: took it in and gave it out (owned copies; ``None`` is the zero
        #: state; classifiers carry none).
        self._lm_in = None
        self._lm_out = None
        self._primed = False

    def start(self) -> tuple:
        sim = self.sim
        self.steps_per_epoch = sim.world_size * self.trainer.iterations_per_epoch
        self.trainer.sync_strategy.async_setup(sim)
        if self._iterators is None:
            self._iterators = self.trainer._epoch_iterators()
        if not self._primed:
            for rank in range(sim.world_size):
                sim.schedule_rank(rank, sim.clock.now)
            self._primed = True
        return divmod(sim.total_steps, self.steps_per_epoch)

    def step(self, state, epoch: int, done: int) -> Optional[tuple]:
        sim = self.sim
        trainer = self.trainer
        while True:
            if len(sim.clock) == 0:
                # Every rank crashed with no rejoin scheduled; end the run
                # gracefully instead of popping an empty heap.
                state.stop_requested = True
                return None
            when, rank = sim.clock.pop()
            sim.report.record_event(when, rank)
            if not self._fault_gate(when, rank):
                break
        progress = sim.begin_iteration(state, epoch, done)
        loss = self._compute_gradient(rank)
        lr = trainer._lr_at(progress)
        step = trainer.sync_strategy.worker_step(rank, lr)
        sim.report.record_step(rank, step.comm_time_s, staleness=step.staleness,
                               rejected=step.rejected)
        # The worker resumes computing after its push is compressed and its
        # exchange completes.
        compute_s = sim.schedule_rank(
            rank, when + step.compression_time_s + step.comm_time_s)
        report = step.to_sync_report()
        sim.timeline.record(compute_s, report)
        return loss, lr, report

    def end_epoch(self) -> None:
        # Evaluation and checkpoints see the state of a run that computed
        # no gradient ahead of its event.
        for rank in range(self.sim.world_size):
            self._drop_pending(rank)

    def finish(self) -> None:
        sim = self.sim
        if sim.injector is not None:
            # Finite outages charge their downtime when discovered; an
            # infinite one (crash_stop) only ends with the run.
            sim.injector.settle_permanent_downtime(sim.clock.now)

    # ------------------------------------------------------------------ #
    # data feeding (per-rank continuous streams)
    # ------------------------------------------------------------------ #
    def _draw(self, rank: int):
        """``rank``'s next batch: its stream runs pass after pass."""
        try:
            return next(self._iterators[rank])
        except StopIteration:
            # A new pass over the rank's data restarts its BPTT windows.  (The
            # streams are lazy generators: the other ranks' fresh ones are
            # dropped unstarted, consuming no data and no shuffle RNG.)
            self._iterators[rank] = self.trainer._epoch_iterators()[rank]
            self._restarted[rank] = True
            return next(self._iterators[rank])

    def _wave(self, rank: int) -> None:
        """Every stale rank's next gradient in one call of the trainer's
        executor, triggered by ``rank``'s event.

        A rank without a pending gradient draws its next batch and steps
        from its current row and the BPTT state its last step left; its
        gradient then stays pending until its own event consumes it.  A
        stacked call needs one batch shape, so a rank whose batch differs
        from ``rank``'s in length (a language model's shorter last window of
        a pass) waits for a wave of its own.  Every other row — pending or
        waiting — is passed as ``None``: the per-rank loop skips it, a
        stacked call runs a zero stand-in on it, and its gradient row,
        buffers and carried state are put back.
        """
        trainer = self.trainer
        executor = trainer.executor
        grads = trainer.flat_world.grad_matrix
        cached = [batch is not None for batch in self._batches]
        for other, batch in enumerate(self._batches):
            if batch is None:
                self._batches[other] = self._draw(other)
        length = len(self._batches[rank][0])
        fresh = [not pending and len(batch[0]) == length
                 for pending, batch in zip(self._pending, self._batches)]
        kept = RowSnapshot(lambda other: (grads[other],),
                           [other for other, pending in enumerate(self._pending)
                            if pending])
        buffers = RowSnapshot(self._buffers.__getitem__, range(len(fresh)))
        inputs = [batch[0] if use else None for use, batch in zip(fresh, self._batches)]
        targets = [batch[1] if use else None for use, batch in zip(fresh, self._batches)]
        if trainer.spec.task == "language_model":
            # A rank holding a batch steps from the state it took in with it;
            # the others continue from their last output, or from zeros
            # after their stream restarted.
            state = executor.select_states(cached, self._lm_in, self._lm_out)
            state = executor.select_states(self._restarted, None, state)
            losses, out = executor.forward_backward(inputs, targets, state)
            self._lm_in = state
            self._lm_out = executor.select_states(fresh, out, self._lm_out)
            self._restarted = [False] * len(self._batches)
        else:
            losses = executor.forward_backward(stack_rows(inputs), stack_rows(targets))
        for other, use in enumerate(fresh):
            if use:
                self._pending[other] = True
                self._losses[other] = losses[other]
                self._rollback[other] = buffers
        buffers.restore([other for other, use in enumerate(fresh) if not use])
        kept.restore()

    def _compute_gradient(self, rank: int) -> float:
        """``rank``'s gradient for this event, in its gradient row; returns
        its loss.  Runs a wave when the rank has none pending."""
        if not self._pending[rank]:
            self._wave(rank)
        self._pending[rank] = False
        self._batches[rank] = None
        self._rollback[rank] = None
        return self._losses[rank]

    def buffers(self, rank: int) -> List[np.ndarray]:
        # A pending rank's live buffers already include the step its event
        # will take; a resumed run takes that step again, so the file holds
        # the values from before it.
        if self._pending[rank]:
            return self._rollback[rank].saved[rank]
        return self._buffers[rank]

    def _drop_pending(self, rank: int) -> None:
        """Forget ``rank``'s pending gradient: its buffers go back to their
        values before that step.  The rank keeps its batch, and the next
        wave re-runs it from its current row and its input BPTT state."""
        if not self._pending[rank]:
            return
        self._pending[rank] = False
        self._rollback[rank].restore([rank])
        self._rollback[rank] = None

    # ------------------------------------------------------------------ #
    # fault layer (event dispositions; strategies never see the injector)
    # ------------------------------------------------------------------ #
    def _fault_gate(self, when: float, rank: int) -> bool:
        """The event's fault gate: True when the fault layer consumed the
        event — a lost step (the rank is down) or a rejoin catch-up — so no
        gradient step runs."""
        injector = self.sim.injector
        if injector is None:
            return False
        if injector.needs_catchup[rank]:
            self._rejoin(rank, when)
            return True
        interval = injector.down_interval(rank, when)
        if interval is None:
            return False
        _, end = interval
        membership = injector.membership
        if membership.is_alive(rank):
            membership.set_alive(rank, False)
            injector.report.record_down(rank)
        injector.report.lost_steps += 1
        if end != math.inf:
            injector.report.record_downtime(rank, end - when)
            injector.needs_catchup[rank] = True
            self.sim.clock.schedule(max(end, self.sim.clock.now), rank)
        # A crash-stop rank never reschedules: its silence is permanent.
        return True

    def _rejoin(self, rank: int, when: float) -> None:
        """Serve a rejoining rank the trainer's priced dense re-sync, then
        resume its compute schedule once the catch-up has arrived.  The
        re-sync overwrites its row, so a gradient pending on the old row is
        dropped."""
        self._drop_pending(rank)
        resync_time = self.trainer._rejoin_rank(rank)
        self.sim.injector.needs_catchup[rank] = False
        self.sim.report.comm_s_per_rank[rank] += resync_time
        self.sim.schedule_rank(rank, when + resync_time)

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        sim = self.sim
        pending = sim.clock.pending()
        ranks = range(sim.world_size)
        histogram = sim.report.staleness_histogram
        return {
            "next_time": np.array([pending.get(rank, sim.clock.now) for rank in ranks],
                                  dtype=np.float64),
            # Which ranks actually have an in-flight event: a crashed rank
            # has none, and restoring must not resurrect it with one.
            "event_mask": np.array([int(rank in pending) for rank in ranks],
                                   dtype=np.int64),
            "primed": np.array([int(self._primed)], dtype=np.int64),
            "total_steps": np.array([sim.total_steps], dtype=np.int64),
            "staleness_keys": np.array(sorted(histogram), dtype=np.int64),
            "staleness_counts": np.array([histogram[k] for k in sorted(histogram)],
                                         dtype=np.int64),
            "rejected": np.array([sim.report.rejected_pushes], dtype=np.int64),
            # A batch drawn for a rank's next step goes back to its stream:
            # the resumed rank draws it again.
            **self._stream_arrays(held=np.array([batch is not None
                                                 for batch in self._batches])),
        }

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        sim = self.sim
        self._primed = bool(int(arrays["primed"][0]))
        if self._primed:
            for rank, when in enumerate(arrays["next_time"].tolist()):
                if arrays["event_mask"][rank]:
                    sim.clock.schedule(when, rank)
        sim.total_steps = int(arrays["total_steps"][0])
        sim.report.staleness_histogram = dict(zip(
            arrays["staleness_keys"].tolist(), arrays["staleness_counts"].tolist()))
        sim.report.rejected_pushes = int(arrays["rejected"][0])
        # Carried BPTT state is not saved: a resumed language model run
        # restarts its truncation windows, like the barrier's epoch start.
        self._restore_streams(arrays, resume=True)
