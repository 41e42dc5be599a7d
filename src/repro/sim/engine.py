"""Event-driven training loop on the virtual clock.

Two integration points with the trainer:

* :class:`SimulationEngine` replaces the lockstep epoch loops when the bound
  strategy ``is_async``.  Ranks advance at the heterogeneous speeds drawn
  from the compute-time model: the clock pops the earliest ``(time, rank)``
  completion event, that rank's gradient is computed (host-side — real
  numerics, simulated duration), the strategy's :meth:`worker_step` performs
  the async numerics and prices its traffic through the α–β network model,
  and the rank's next completion is scheduled at
  ``event_time + compression + comm + stall + compute``.  Epoch semantics are
  *update-budget based*: one epoch is ``world_size × iterations_per_epoch``
  worker steps in event order (the same number of gradient computations as
  a lockstep epoch), so fast ranks contribute more steps per epoch — which
  is exactly how asynchronous training converts straggler slack into
  progress.
* :class:`LockstepSimulator` keeps the synchronous paths' numerics
  untouched and only *prices* them: each lockstep iteration costs the
  barrier ``max_r(compute_r + stall_r)`` plus the iteration's modelled
  compression/communication/aggregation time.  Under a constant model this
  reproduces today's behaviour bit for bit while adding a simulated clock.

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
import time
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

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
        self.total_steps = 0
        self.batches_consumed: List[int] = [0] * world_size
        self._iterators = None
        #: Carried BPTT state per rank (stays ``None`` for classifiers).
        self._lm_states: List = [None] * world_size
        self._primed = False
        #: Optional :class:`repro.faults.injector.FaultInjector`, installed
        #: by the trainer.  ``None`` keeps the event loop fault-free.
        self.injector = None

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
        world_size = self.trainer.config.world_size
        self._iterators = self.trainer._epoch_iterators()
        # Resume: fast-forward each rank's stream by replaying the batches it
        # already consumed (the loaders reshuffle deterministically per pass,
        # so skipping k batches lands the RNGs exactly where they were).
        # Carried BPTT state is not replayed — a resumed language model run
        # restarts its truncation windows, like the lockstep epoch boundary.
        skip = list(self.batches_consumed)
        self.batches_consumed = [0] * world_size
        for rank, count in enumerate(skip):
            for _ in range(count):
                self._next_batch(rank)

    def _next_batch(self, rank: int):
        try:
            batch = next(self._iterators[rank])
        except StopIteration:
            # A new pass over the rank's data restarts its BPTT windows.  (The
            # streams are lazy generators: the other ranks' fresh ones are
            # dropped unstarted, consuming no data and no shuffle RNG.)
            self._iterators[rank] = self.trainer._epoch_iterators()[rank]
            self._lm_states[rank] = None
            batch = next(self._iterators[rank])
        self.batches_consumed[rank] += 1
        return batch

    def _compute_gradient(self, rank: int) -> float:
        """Forward/backward for one rank into its pinned flat gradient row."""
        trainer = self.trainer
        trainer.flat_world.replica_buffers[rank].zero_grads()
        inputs, targets = self._next_batch(rank)
        loss, self._lm_states[rank] = trainer._replica_step(
            rank, inputs, targets, self._lm_states[rank])
        return loss

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #
    def _schedule_next(self, rank: int, start: float) -> None:
        compute_s, stall_s = self.compute_model.step_time(rank)
        if self.injector is not None and self.injector.affects_timing:
            stall_s += self.injector.extra_stall(rank)
        self.report.record_schedule(rank, compute_s, stall_s)
        self.clock.schedule(start + stall_s + compute_s, rank)

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
        resume its compute schedule once the catch-up has arrived."""
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
                wall_start = time.perf_counter()
                loss = self._compute_gradient(rank)
                compute_wall = time.perf_counter() - wall_start
                lr = max(trainer.lr_policy.lr_at(state.epoch_progress,
                                                 trainer.base_lr), 1e-12)
                step = strategy.worker_step(rank, lr)
                self.report.record_step(rank, step.comm_time_s,
                                        staleness=step.staleness,
                                        rejected=step.rejected)
                self.total_steps += 1
                # The worker resumes computing after its push is compressed
                # and its exchange completes.
                self._schedule_next(
                    rank, when + step.compression_time_s + step.comm_time_s)
                epoch_losses.append(loss)
                trainer._end_iteration(state, loss, lr, compute_wall,
                                       step.to_sync_report())
                if state.stop_requested:
                    break
            self.report.record_epoch_mark(self.clock.now)
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

    Numerics are untouched: the trainer's loops run exactly as before and
    call :meth:`record_iteration` once per iteration with that iteration's
    :class:`~repro.core.timeline.SyncReport`.  The iteration's simulated
    duration is the compute barrier — every rank draws its step time from
    the compute model and the slowest gates the collective — plus the
    report's compression, communication and aggregation time.
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
        duration = barrier + overhead + float(extra_s)
        self.now += duration
        self.iterations += 1
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
