"""Event-driven training loop on the virtual clock.

Two integration points with the trainer:

* :class:`SimulationEngine` replaces the lockstep epoch loops when the bound
  strategy ``is_async``.  Ranks advance at the heterogeneous speeds drawn
  from the compute-time model: the clock pops the earliest ``(time, rank)``
  completion event, the strategy's :meth:`worker_step` consumes that rank's
  gradient (real numerics, simulated duration), performs the async numerics
  and prices its traffic through the α–β network model, and the rank's next
  completion is scheduled at ``event_time + compression + comm + stall +
  compute``.  Gradients are computed in *waves*: ``async_ps`` and ``easgd``
  write only the event rank's row, so a rank's next gradient depends only on
  its own row, its next batch and its carried BPTT state.  When an event
  finds its rank with no pending gradient, one call of the trainer's own
  executor (``trainer.executor``, the one the lockstep path runs) computes
  the next gradient of every rank without one; each stays pending in its
  gradient row until its own event consumes it.  Epoch semantics are *update-budget
  based*: one epoch is ``world_size × iterations_per_epoch`` worker steps in
  event order (the same number of gradient computations as a lockstep
  epoch), so fast ranks contribute more steps per epoch — which is exactly
  how asynchronous training converts straggler slack into progress.
* :class:`LockstepSimulator` keeps the synchronous paths' numerics
  untouched and only *prices* them: each lockstep iteration costs the
  barrier ``max_r(compute_r + stall_r)`` plus the iteration's modelled
  compression/communication/aggregation time.  Every synchronous run has
  one, on the ``constant`` model unless the spec names another.

Every term on both clocks is modelled, none measured — compression too: the
strategies report the analytic price of
:data:`~repro.core.cost_model.DEFAULT_COMPRESSION_MODEL` — so a run's
simulated time is a pure function of its spec and its seeds.

Both expose ``state_arrays``/``load_state_arrays`` so checkpoints capture
the clock, the in-flight events and the compute-model RNG positions
(restored by draw-count replay), making resumed trajectories bit-identical.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.core.batched_replicas import stack_rows
from repro.core.timeline import IterationTimeline
from repro.sim.clock import VirtualClock
from repro.sim.compute import ComputeTimeModel
from repro.sim.report import SimReport
from repro.optim.lars import LARS, lars_flat_update
from repro.optim.sgd import sgd_flat_update

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.trainer import DistributedTrainer


class SimulationEngine:
    """Runs an async strategy's training loop on the virtual clock."""

    def __init__(self, trainer: "DistributedTrainer",
                 compute_model: ComputeTimeModel, clock_seed: int):
        self.trainer = trainer
        self.compute_model = compute_model
        self.clock_seed = int(clock_seed)
        world_size = trainer.config.world_size
        compute_model.bind(world_size, self.clock_seed)
        self.clock = VirtualClock()
        self.report = SimReport(compute_model=compute_model.to_dict(),
                                clock_seed=self.clock_seed,
                                world_size=world_size,
                                strategy=trainer.sync_strategy.name)
        self.timeline = IterationTimeline()
        self.total_steps = 0
        self.batches_consumed: List[int] = [0] * world_size
        self._iterators = None
        #: Per rank: the batch drawn for its next step (kept until its event
        #: consumes it), whether its gradient row and loss hold that step's
        #: result, and whether its stream restarted on the draw.
        self._batches: List = [None] * world_size
        self._pending: List[bool] = [False] * world_size
        self._losses: List[float] = [0.0] * world_size
        self._restarted: List[bool] = [False] * world_size
        #: Per rank: its module buffers (BatchNorm running statistics, updated
        #: in place by every step) and their values before its pending step.
        self._buffers = [[buffer for _, buffer in replica.named_buffers()]
                         for replica in trainer.replicas]
        self._rollback: List = [None] * world_size
        #: Carried BPTT state in the executor's own format, as the last wave
        #: took it in and gave it out (owned copies; ``None`` is the zero
        #: state; classifiers carry none).
        self._lm_in = None
        self._lm_out = None
        self._primed = False
        #: Optional :class:`repro.faults.injector.FaultInjector`, installed
        #: by the trainer.  ``None`` keeps the event loop fault-free.
        self.injector = None

    @property
    def now(self) -> float:
        """The virtual clock's current time (seconds)."""
        return self.clock.now

    # ------------------------------------------------------------------ #
    # engine protocol consumed by AsyncStrategy implementations
    # ------------------------------------------------------------------ #
    @property
    def world(self):
        return self.trainer.world

    @property
    def param_matrix(self) -> np.ndarray:
        return self.trainer.flat_world.param_matrix

    @property
    def grad_matrix(self) -> np.ndarray:
        return self.trainer.flat_world.grad_matrix

    @property
    def num_parameters(self) -> int:
        return self.trainer.num_parameters

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
    # data feeding (per-rank continuous streams)
    # ------------------------------------------------------------------ #
    def _init_data(self) -> None:
        if self._iterators is not None:
            return
        self._iterators = self.trainer._epoch_iterators()
        # Resume: fast-forward each rank's stream by replaying the batches it
        # already consumed (the loaders reshuffle deterministically per pass,
        # so skipping k batches lands the RNGs exactly where they were).
        # Carried BPTT state is not replayed — a resumed language model run
        # restarts its truncation windows, like the lockstep epoch boundary.
        for rank, count in enumerate(self.batches_consumed):
            for _ in range(count):
                self._draw(rank)

    def _draw(self, rank: int):
        """``rank``'s next batch; counted only when its event consumes it."""
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
        kept = {other: grads[other].copy()
                for other, pending in enumerate(self._pending) if pending}
        snapshot = [[buffer.copy() for buffer in buffers] for buffers in self._buffers]
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
        for other, saved in enumerate(snapshot):
            if fresh[other]:
                self._pending[other] = True
                self._losses[other] = losses[other]
                self._rollback[other] = saved
            else:
                for buffer, value in zip(self._buffers[other], saved):
                    buffer[...] = value
        for other, row in kept.items():
            grads[other] = row

    def _compute_gradient(self, rank: int) -> float:
        """``rank``'s gradient for this event, in its gradient row; returns
        its loss.  Runs a wave when the rank has none pending."""
        if not self._pending[rank]:
            self._wave(rank)
        self._pending[rank] = False
        self._batches[rank] = None
        self._rollback[rank] = None
        self.batches_consumed[rank] += 1
        return self._losses[rank]

    def _drop_pending(self, rank: int) -> None:
        """Forget ``rank``'s pending gradient: its buffers go back to their
        values before that step.  The rank keeps its batch, and the next
        wave re-runs it from its current row and its input BPTT state."""
        if not self._pending[rank]:
            return
        self._pending[rank] = False
        for buffer, value in zip(self._buffers[rank], self._rollback[rank]):
            buffer[...] = value
        self._rollback[rank] = None

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #
    def _schedule_next(self, rank: int, start: float) -> float:
        """Draw ``rank``'s next step and schedule its completion; returns
        the drawn ``compute + stall`` seconds."""
        compute_s, stall_s = self.compute_model.step_time(rank)
        if self.injector is not None and self.injector.affects_timing:
            stall_s += self.injector.extra_stall(rank)
        self.report.record_schedule(rank, compute_s, stall_s)
        self.clock.schedule(start + stall_s + compute_s, rank)
        return stall_s + compute_s

    # ------------------------------------------------------------------ #
    # fault layer (event dispositions; strategies never see the injector)
    # ------------------------------------------------------------------ #
    def _fault_gate(self, when: float, rank: int) -> bool:
        """Handle the fault-layer disposition of a popped event.

        Returns True when the fault layer consumed the event — a lost step
        (the rank is down) or a rejoin catch-up — so no gradient step runs.
        """
        injector = self.injector
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
            self.clock.schedule(max(end, self.clock.now), rank)
        # A crash-stop rank never reschedules: its silence is permanent.
        return True

    def _rejoin(self, rank: int, when: float) -> None:
        """Serve a rejoining rank the trainer's priced dense re-sync, then
        resume its compute schedule once the catch-up has arrived.  The
        re-sync overwrites its row, so a gradient pending on the old row is
        dropped."""
        self._drop_pending(rank)
        resync_time = self.trainer._rejoin_rank(rank)
        self.injector.needs_catchup[rank] = False
        self.report.comm_s_per_rank[rank] += resync_time
        self._schedule_next(rank, when + resync_time)

    def run(self, state) -> None:
        trainer = self.trainer
        strategy = trainer.sync_strategy
        strategy.async_setup(self)
        self._init_data()
        world_size = trainer.config.world_size
        steps_per_epoch = world_size * trainer.iterations_per_epoch
        if not self._primed:
            for rank in range(world_size):
                self._schedule_next(rank, self.clock.now)
            self._primed = True
        start_epoch = self.total_steps // steps_per_epoch
        for epoch in range(start_epoch, trainer.config.epochs):
            state.epoch = epoch
            trainer.callbacks.on_epoch_start(state)
            epoch_losses: List[float] = []
            epoch_target = (epoch + 1) * steps_per_epoch
            while self.total_steps < epoch_target:
                if len(self.clock) == 0:
                    # Every rank crashed with no rejoin scheduled; end the
                    # run gracefully instead of popping an empty heap.
                    state.stop_requested = True
                    break
                when, rank = self.clock.pop()
                self.report.record_event(when, rank)
                if self._fault_gate(when, rank):
                    continue
                step_in_epoch = self.total_steps - epoch * steps_per_epoch
                state.epoch = epoch
                state.iteration = step_in_epoch
                state.epoch_progress = epoch + step_in_epoch / steps_per_epoch
                trainer.callbacks.on_iteration_start(state)
                loss = self._compute_gradient(rank)
                lr = max(trainer.lr_policy.lr_at(state.epoch_progress,
                                                 trainer.base_lr), 1e-12)
                step = strategy.worker_step(rank, lr)
                self.report.record_step(rank, step.comm_time_s,
                                        staleness=step.staleness,
                                        rejected=step.rejected)
                self.total_steps += 1
                # The worker resumes computing after its push is compressed
                # and its exchange completes.
                compute_s = self._schedule_next(
                    rank, when + step.compression_time_s + step.comm_time_s)
                report = step.to_sync_report()
                self.timeline.record(compute_s, report)
                epoch_losses.append(loss)
                trainer._end_iteration(state, loss, lr, report)
                if state.stop_requested:
                    break
            self.report.record_epoch_mark(self.clock.now)
            # Evaluation and checkpoints see the state of a run that computed
            # no gradient ahead of its event.
            for rank in range(world_size):
                self._drop_pending(rank)
            trainer._end_epoch(state, epoch, epoch_losses)
            if state.stop_requested:
                break
        if self.injector is not None:
            # Finite outages charge their downtime when discovered; an
            # infinite one (crash_stop) only ends with the run.
            self.injector.settle_permanent_downtime(self.clock.now)

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        pending = self.clock.pending()
        world_size = self.report.world_size
        next_times = np.array([pending.get(rank, self.clock.now)
                               for rank in range(world_size)], dtype=np.float64)
        # Which ranks actually have an in-flight event: a crashed rank has
        # none, and restoring must not resurrect it with a fabricated one.
        event_mask = np.array([1 if rank in pending else 0
                               for rank in range(world_size)], dtype=np.int64)
        return {
            "clock_now": np.array([self.clock.now], dtype=np.float64),
            "next_time": next_times,
            "event_mask": event_mask,
            "primed": np.array([int(self._primed)], dtype=np.int64),
            "total_steps": np.array([self.total_steps], dtype=np.int64),
            "steps_per_rank": np.array(self.report.steps_per_rank, dtype=np.int64),
            "batches_consumed": np.array(self.batches_consumed, dtype=np.int64),
            "draws": np.array(self.compute_model.step_counts, dtype=np.int64),
            "busy_s": np.array(self.report.busy_s_per_rank, dtype=np.float64),
            "stall_s": np.array(self.report.stall_s_per_rank, dtype=np.float64),
            "comm_s": np.array(self.report.comm_s_per_rank, dtype=np.float64),
            "epoch_marks": np.array(self.report.epoch_time_s, dtype=np.float64),
            "staleness_keys": np.array(sorted(self.report.staleness_histogram),
                                       dtype=np.int64),
            "staleness_counts": np.array(
                [self.report.staleness_histogram[k]
                 for k in sorted(self.report.staleness_histogram)],
                dtype=np.int64),
            "rejected": np.array([self.report.rejected_pushes], dtype=np.int64),
        }

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        world_size = self.report.world_size
        now = float(arrays["clock_now"][0])
        next_times = np.asarray(arrays["next_time"], dtype=np.float64)
        if "event_mask" in arrays:
            mask = [bool(int(v)) for v in arrays["event_mask"]]
        else:  # pre-fault checkpoints: every rank always had an event
            mask = [True] * world_size
        self._primed = bool(int(arrays["primed"][0]))
        if self._primed:
            self.clock.restore(now, {rank: float(next_times[rank])
                                     for rank in range(world_size)
                                     if mask[rank]})
        else:
            self.clock.restore(now, {})
        self.total_steps = int(arrays["total_steps"][0])
        self.batches_consumed = [int(c) for c in arrays["batches_consumed"]]
        self.compute_model.restore([int(c) for c in arrays["draws"]])
        self.report.steps_per_rank = [int(c) for c in arrays["steps_per_rank"]]
        self.report.busy_s_per_rank = [float(v) for v in arrays["busy_s"]]
        self.report.stall_s_per_rank = [float(v) for v in arrays["stall_s"]]
        self.report.comm_s_per_rank = [float(v) for v in arrays["comm_s"]]
        if "epoch_marks" in arrays:
            self.report.epoch_time_s = [float(v) for v in arrays["epoch_marks"]]
            self.report.staleness_histogram = {
                int(k): int(c) for k, c in zip(arrays["staleness_keys"],
                                               arrays["staleness_counts"])}
            self.report.rejected_pushes = int(arrays["rejected"][0])
        self.report.simulated_time_s = now


class LockstepSimulator:
    """Simulated-time accounting for the synchronous lockstep paths.

    Numerics are untouched: the trainer's lockstep loop calls
    :meth:`record_iteration` once per iteration with that iteration's
    :class:`~repro.core.timeline.SyncReport`.  The iteration's simulated
    duration is the compute barrier — every rank draws its step time from
    the compute model and the slowest gates the collective — plus the
    report's compression, communication and aggregation time and the fault
    layer's extra time; :attr:`timeline` folds the same terms.
    """

    def __init__(self, world_size: int, compute_model: ComputeTimeModel,
                 clock_seed: int):
        self.world_size = int(world_size)
        self.compute_model = compute_model
        self.clock_seed = int(clock_seed)
        compute_model.bind(self.world_size, self.clock_seed)
        self.now = 0.0
        self.iterations = 0
        self.report = SimReport(compute_model=compute_model.to_dict(),
                                clock_seed=self.clock_seed,
                                world_size=self.world_size,
                                strategy="lockstep")
        self.timeline = IterationTimeline()
        self._pending_draws: Optional[List] = None

    def draw_iteration(self) -> List:
        """Pre-draw every rank's ``(compute_s, stall_s)`` for the coming
        iteration without advancing the clock.

        The trainer's fault phase needs the draws *before* the iteration
        runs (a stall can mean "absent this iteration" under the
        ``intermittent_dropout`` bridge); :meth:`record_iteration` then
        consumes the cached draws instead of drawing again, so timing is
        identical whether or not the fault layer peeked.
        """
        if self._pending_draws is None:
            self._pending_draws = [self.compute_model.step_time(rank)
                                   for rank in range(self.world_size)]
        return self._pending_draws

    def record_iteration(self, sync_report, alive: Optional[List[int]] = None,
                         extra_s: float = 0.0) -> float:
        if self._pending_draws is not None:
            draws = self._pending_draws
            self._pending_draws = None
        else:
            draws = [self.compute_model.step_time(rank)
                     for rank in range(self.world_size)]
        if alive is None:
            barrier = max(compute + stall for compute, stall in draws)
        else:
            # Dead ranks are absent from the barrier: the slowest *survivor*
            # gates the collective (their draw is still consumed, keeping
            # the compute-model streams aligned with a healthy run).
            barrier = max((draws[r][0] + draws[r][1] for r in alive),
                          default=0.0)
        overhead = (sync_report.compression_time_s + sync_report.comm_time_s
                    + sync_report.aggregation_time_s)
        extra_s = float(extra_s)
        duration = barrier + overhead + extra_s
        self.now += duration
        self.iterations += 1
        self.timeline.record(barrier, sync_report, extra_s)
        alive_set = None if alive is None else set(alive)
        for rank, (compute, stall) in enumerate(draws):
            if alive_set is not None and rank not in alive_set:
                continue
            self.report.record_schedule(rank, compute, stall)
            self.report.record_step(rank, overhead)
        self.report.record_event(self.now, -1)
        return duration

    def record_epoch_mark(self) -> None:
        self.report.record_epoch_mark(self.now)

    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "clock_now": np.array([self.now], dtype=np.float64),
            "iterations": np.array([self.iterations], dtype=np.int64),
            "draws": np.array(self.compute_model.step_counts, dtype=np.int64),
            "steps_per_rank": np.array(self.report.steps_per_rank, dtype=np.int64),
            "busy_s": np.array(self.report.busy_s_per_rank, dtype=np.float64),
            "stall_s": np.array(self.report.stall_s_per_rank, dtype=np.float64),
            "comm_s": np.array(self.report.comm_s_per_rank, dtype=np.float64),
            "epoch_marks": np.array(self.report.epoch_time_s, dtype=np.float64),
        }

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        if "clock_now" not in arrays:
            return  # written by a clockless run: the fresh clock starts at 0
        self.now = float(arrays["clock_now"][0])
        self.iterations = int(arrays["iterations"][0])
        self.compute_model.restore([int(c) for c in arrays["draws"]])
        self.report.steps_per_rank = [int(c) for c in arrays["steps_per_rank"]]
        self.report.busy_s_per_rank = [float(v) for v in arrays["busy_s"]]
        self.report.stall_s_per_rank = [float(v) for v in arrays["stall_s"]]
        self.report.comm_s_per_rank = [float(v) for v in arrays["comm_s"]]
        if "epoch_marks" in arrays:
            self.report.epoch_time_s = [float(v) for v in arrays["epoch_marks"]]
        self.report.simulated_time_s = self.now
