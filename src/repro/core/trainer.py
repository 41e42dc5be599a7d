"""Data-parallel distributed SGD trainer over simulated workers.

The trainer maintains one model replica, data shard, momentum row and
compressor per simulated worker and runs them in lockstep, exactly mirroring
Algorithm 1 of the paper:

* each worker computes a local gradient on its fraction of the global
  mini-batch (line 2);
* the configured :class:`~repro.sync.SyncStrategy` synchronizes the
  gradients — the default ``allreduce`` strategy performs the compression +
  collective exchange + reconstruction (lines 3–6) exactly as the paper
  prescribes, while ``local_sgd`` / ``gossip`` defer or decentralize the
  exchange (see :mod:`repro.sync`);
* each worker applies its gradient with SGD/LARS and the Table-1
  learning-rate policy (line 7), after which the strategy may exchange
  *parameters* (local-SGD periodic averaging, gossip neighbour averaging);
* after the last iteration the replicas are consolidated with one dense
  exchange (lines 9–10), routed through the strategy's aggregator.

Note that with A2SGD the replicas genuinely diverge during training (each
worker adds back its own error vector), so the trainer really does keep
``world_size`` models — this is essential to reproducing the algorithm's
behaviour rather than an implementation convenience.

Cross-cutting concerns — metrics collection, timeline recording, evaluation
cadence, checkpointing, progress logging — live in
:mod:`repro.core.callbacks`, not here: the trainer drives the
``Callback`` lifecycle hooks and new per-iteration behaviours plug in as
callbacks without touching this file.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.comm.inprocess import InProcessWorld
from repro.comm.network_model import NetworkModel
from repro.compress.registry import get_compressor
from repro.core.batched_replicas import BatchedLanguageModelExecutor
from repro.core.callbacks import (
    Callback,
    CallbackList,
    EvaluationCallback,
    MetricsCallback,
    TimelineCallback,
    TrainState,
    resolve_callbacks,
)
from repro.core.features import RunFeatures
from repro.core.flat_buffer import WorldFlatBuffers
from repro.core.metrics import TrainingMetrics, evaluate_classifier, evaluate_language_model
from repro.core.timeline import IterationTimeline
from repro.core.trainer_state import LiveWorkerRows, Progress, WorldRows
from repro.data.dataloader import DataLoader, shard_dataset
from repro.data.partition import partition_clients
from repro.data.registry import get_dataset
from repro.faults import FaultSpec
from repro.federated import ClientPopulation, ClientSpec
from repro.data.synthetic_text import LanguageModelBatcher
from repro.models.registry import ModelSpec
from repro.nn.module import Module
from repro.optim.lars import LARS, lars_flat_update
from repro.optim.registry import OPTIMIZERS
from repro.optim.sgd import sgd_flat_update
from repro.sim.engine import LockstepSimulator, SimulationEngine
from repro.sync import SyncSpec, merge_reports
from repro.tensor import Tensor, functional as F
from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequenceFactory, replica_init_seed


@dataclass
class TrainerConfig:
    """Configuration of one distributed training run."""

    model: str = "fnn3"
    preset: str = "tiny"
    algorithm: str = "a2sgd"
    world_size: int = 4
    epochs: int = 3
    seed: int = 0
    #: Per-worker batch size; defaults to Table 1's global batch divided by P.
    batch_size: Optional[int] = None
    #: Override the base learning rate (defaults to Table 1).
    base_lr: Optional[float] = None
    momentum: float = 0.9
    weight_decay: float = 0.0
    #: Cap on iterations per epoch (keeps CI runs fast); None = full epoch.
    max_iterations_per_epoch: Optional[int] = None
    #: Truncated-BPTT window for language models.
    seq_len: int = 12
    #: Dataset size overrides (None = dataset defaults).
    num_train: Optional[int] = None
    num_test: Optional[int] = None
    #: Extra kwargs forwarded to the compressor constructor.
    compressor_kwargs: dict = field(default_factory=dict)
    #: Network model (or the spec's name / dict form); defaults to the
    #: paper's 100 Gbps InfiniBand.
    network: Optional[NetworkModel] = None
    #: Evaluate every k epochs (always evaluates on the last epoch).
    eval_every: int = 1
    #: Synchronization setup: None (the default allreduce + mean, i.e. the
    #: paper's Algorithm 1), a :class:`repro.sync.SyncSpec`, or its dict form
    #: (``{"strategy": "gossip", "topology": "ring",
    #: "parameter_compression": "topk", ...}``).
    sync: Optional[object] = None
    #: Compute-time model for the simulated clock: None, a registered name
    #: ("constant", "lognormal", "straggler", "intermittent_dropout"), a
    #: ``{"name": ..., **kwargs}`` dict, or a
    #: :class:`repro.sim.compute.ComputeTimeModel` instance.  Async
    #: strategies always run on the virtual clock (defaulting to
    #: "constant"); with a synchronous strategy a non-None model attaches a
    #: :class:`repro.sim.engine.LockstepSimulator` that prices each
    #: iteration without touching the numerics.
    compute_model: Optional[object] = None
    #: Seed for the per-rank compute-time draws (independent of ``seed`` so
    #: timing noise never perturbs the training numerics).
    clock_seed: int = 0
    #: Fault-injection setup: None (the default — no faults, bit-identical
    #: to the pre-fault code paths), a registered fault-model name
    #: ("crash_stop", "transient_blackout", "message_loss", "slow_node"),
    #: a :class:`repro.faults.FaultSpec`, or its dict form (the experiment
    #: spec's ``faults`` section).
    faults: Optional[object] = None
    #: Seed for the fault schedule draws (``--seed-faults``); independent of
    #: ``seed`` and ``clock_seed`` so the same fault timeline can replay
    #: against different training/timing randomness.
    fault_seed: int = 0
    #: Execution backend: where forward/backward passes run.  ``"inprocess"``
    #: (the default) is the single-process batched executor;
    #: ``"multiprocessing"`` fans rank shards out to worker processes over
    #: shared-memory flat buffers, bit-identical to inprocess.  See
    #: :mod:`repro.backends`.
    backend: str = "inprocess"
    #: Extra kwargs forwarded to the backend constructor (e.g.
    #: ``{"num_workers": 4}`` for multiprocessing).
    backend_kwargs: dict = field(default_factory=dict)
    #: Client-population setup: None (every rank is a client — the
    #: pre-federated behaviour), an int (``num_clients``), a
    #: :class:`repro.federated.ClientSpec`, or its dict form (the experiment
    #: spec's ``clients`` section).
    clients: Optional[object] = None


class DistributedTrainer:
    """Simulated data-parallel training of one model with one algorithm.

    ``callbacks`` accepts :class:`~repro.core.callbacks.Callback` instances,
    registered callback names, or ``{"name": ..., **kwargs}`` dicts; they run
    after the built-in timeline/evaluation/metrics callbacks, in order.
    """

    def __init__(self, config: TrainerConfig, callbacks: Optional[Iterable] = None):
        self.config = config
        # The one compatibility check — the list ExperimentSpec.validate()
        # raises — after which construction only *reads* the record.
        features = RunFeatures.of(config)
        problems = features.problems()
        if problems:
            raise ValueError("; ".join(problems))
        self.spec: ModelSpec = features.model_spec
        self.sync_spec: SyncSpec = features.sync
        self.fault_spec: FaultSpec = features.faults
        self.clients_spec: ClientSpec = features.clients
        self.seeds = SeedSequenceFactory(config.seed)
        self.world = InProcessWorld(config.world_size, network=features.network)

        # Replicas: identical initialization on every worker (Algorithm 1
        # line 1).  The seed derivation is centralized in replica_init_seed so
        # out-of-process backends rebuilding a rank's replica stay
        # bit-identical by construction.
        self.replicas: List[Module] = [
            self.spec.build(seed=replica_init_seed(config.seed, rank))
            for rank in range(config.world_size)]
        self.num_parameters = self.replicas[0].num_parameters()

        # Compressors: independent instances so error feedback stays local.
        self.compressors = [get_compressor(config.algorithm, **config.compressor_kwargs)
                            for _ in range(config.world_size)]
        # Synchronization strategy (when/what ranks exchange) composed with an
        # aggregator (how payloads combine); the default SyncSpec() is the
        # paper's Algorithm 1 and reproduces the seed trainer bit for bit.
        self.sync_strategy = self.sync_spec.build(self.world, self.compressors)
        #: Whether the bound strategy trains on the virtual-clock event loop.
        self.is_async = features.is_async

        # Execution backend: where the forward/backward passes run.
        self.backend = features.backend(**config.backend_kwargs)
        try:
            self._build(features, callbacks)
        except BaseException:
            # Once a backend exists, a failing constructor must not pin its
            # resources (the multiprocessing arena) for the life of the
            # process — and the caller sees the constructor's own exception,
            # never a cleanup error.
            try:
                self.backend.close()
            except Exception:
                get_logger("repro.trainer").exception(
                    "backend cleanup failed after a constructor error")
            raise

    def _build(self, features: RunFeatures, callbacks: Optional[Iterable]) -> None:
        """Everything the constructor sets up after the backend exists."""
        config = self.config
        # Client-population layer: a logical population of N clients mapped
        # lazily onto the P replica slots.
        self.population: Optional[ClientPopulation] = \
            ClientPopulation(self.clients_spec, config.world_size) \
            if self.clients_spec.enabled else None

        # Learning-rate policy and the optimizer (LARS when Table 1 says so):
        # one hyperparameter / learning-rate record for the whole world — the
        # fused kernels in _apply step every row of the (P, n) matrices.
        self.base_lr = features.base_lr
        self.lr_policy = features.lr_policy
        self.optimizer = OPTIMIZERS.get(features.optimizer)(
            self.replicas[0].parameters(), lr=self.base_lr,
            momentum=config.momentum, weight_decay=config.weight_decay)

        # Adopt every replica into one (P, n) flat world so gradients flow
        # backward pass → compressor → optimizer with no flatten/unflatten
        # copies and one batched kernel call per stage.
        self.flat_world: WorldFlatBuffers = self.backend.create_world(self.replicas)
        self._velocity_matrix = np.zeros_like(self.flat_world.param_matrix)
        self._step_scratch = np.empty_like(self.flat_world.param_matrix)
        # The batched executor stacks all ranks into one graph — the async
        # event loop computes one rank at a time, eagerly.
        self.executor = None if self.is_async \
            else self.backend.create_executor(self)

        self._setup_data()
        # The stacked LM executor needs every rank to contribute equally-shaped
        # windows; uneven shards (batch not divisible by P) use the loop.
        if (isinstance(self.executor, BatchedLanguageModelExecutor)
                and len({shard.batch_size for shard in self.lm_shards}) != 1):
            self.executor = None
        self.metrics = TrainingMetrics(metric_name=self.spec.metric)
        self.timeline = IterationTimeline()
        self._global_iteration = 0
        #: Live worker rows snapshotted just before finalize() collapsed them
        #: (async runs only) — lets checkpoints resume per-rank trajectories.
        self._async_worker_rows: Optional[np.ndarray] = None

        # Simulated time.  Async strategies always train on the virtual-clock
        # event engine; synchronous strategies keep their lockstep numerics
        # and, when the (defaulted) compute model is set, attach a
        # LockstepSimulator that prices each iteration.
        self.sim_engine: Optional[SimulationEngine] = None
        self.lockstep_sim: Optional[LockstepSimulator] = None
        if self.is_async:
            self.sim_engine = SimulationEngine(self, features.compute_model,
                                               config.clock_seed)
        elif features.compute_model is not None:
            self.lockstep_sim = LockstepSimulator(config.world_size,
                                                  features.compute_model,
                                                  config.clock_seed)

        # Fault layer: membership mask + injector.  ``intermittent_dropout``
        # compute stalls are bridged to membership absences on the lockstep
        # paths (the timing-only behaviour lives on as the ``slow_node``
        # fault model).
        self.fault_injector = self.fault_spec.build(
            config.world_size, seed=config.fault_seed,
            bridge_compute_stalls=features.bridge_compute_stalls)
        self._last_losses: Optional[np.ndarray] = None
        if self.fault_injector is not None:
            self.world.membership = self.fault_injector.membership
            if self.sim_engine is not None:
                self.sim_engine.injector = self.fault_injector
                self.sim_engine.report.fault = self.fault_injector.report
            elif self.lockstep_sim is not None:
                self.lockstep_sim.report.fault = self.fault_injector.report

        # Checkpointed state: each owner implements state_arrays() /
        # load_state_arrays() under its own key prefix; core/checkpoint.py is
        # one loop over this list each way.  New subsystems append themselves.
        owners = [("", WorldRows(self)),
                  ("sync_param_", self.sync_strategy.parameter_codec),
                  ("sim_", self.sim_engine or self.lockstep_sim),
                  ("sync_async_", self.sync_strategy if self.is_async else None),
                  ("async_worker_", LiveWorkerRows(self) if self.is_async else None),
                  ("fault_", self.fault_injector),
                  ("clients_", self.population),
                  ("", Progress(self))]
        self.checkpoint_owners = [(prefix, owner) for prefix, owner in owners
                                  if owner is not None]

        # Lifecycle plugins.  The built-ins reproduce the seed trainer's
        # behaviour (timeline first so metrics sees fresh compute totals,
        # evaluation before metrics so the epoch row has its metric value);
        # user callbacks run after them in the order given.
        self.state = TrainState(trainer=self)
        self.callbacks = CallbackList([TimelineCallback(), EvaluationCallback(),
                                       MetricsCallback(), *resolve_callbacks(callbacks)])

    # ------------------------------------------------------------------ #
    # data pipelines
    # ------------------------------------------------------------------ #
    def _setup_data(self) -> None:
        config = self.config
        if self.spec.task == "classification":
            train, test = get_dataset(self.spec.dataset, seed=config.seed,
                                      num_train=config.num_train, num_test=config.num_test)
            self.test_dataset = test
            per_worker_batch = config.batch_size or max(1, self.spec.batch_size // config.world_size)
            if self.population is not None:
                self._setup_federated_data(train, per_worker_batch)
            else:
                self.loaders = []
                for rank in range(config.world_size):
                    shard = shard_dataset(train, rank, config.world_size, shuffle_seed=config.seed)
                    loader = DataLoader(shard, batch_size=per_worker_batch, shuffle=True,
                                        drop_last=True, rng=self.seeds.for_worker(rank, "batching"))
                    self.loaders.append(loader)
                self.iterations_per_epoch = min(len(loader) for loader in self.loaders)
        elif self.spec.task == "language_model":
            train_tokens, test_tokens, vocab = get_dataset(self.spec.dataset, seed=config.seed,
                                                           num_train=config.num_train,
                                                           num_test=config.num_test)
            global_batch = config.batch_size * config.world_size if config.batch_size \
                else self.spec.batch_size
            global_batch = max(config.world_size, min(global_batch, 64))
            batcher = LanguageModelBatcher(train_tokens, global_batch, config.seq_len)
            self.lm_shards = [batcher.shard(rank, config.world_size)
                              for rank in range(config.world_size)]
            self.test_batcher = LanguageModelBatcher(test_tokens,
                                                     batch_size=min(16, global_batch),
                                                     seq_len=config.seq_len)
            self.iterations_per_epoch = min(len(shard) for shard in self.lm_shards)
        else:  # pragma: no cover - registry only contains the two tasks
            raise ValueError(f"unknown task {self.spec.task!r}")
        if config.max_iterations_per_epoch is not None:
            self.iterations_per_epoch = min(self.iterations_per_epoch,
                                            config.max_iterations_per_epoch)
        if self.iterations_per_epoch < 1:
            raise ValueError("dataset too small for the requested batch size / world size")

    def _setup_federated_data(self, train, per_worker_batch: int) -> None:
        """Partition the training set across the logical client population.

        Identity mode (``full`` sampler, N == P) keeps the trainer's
        stateful per-rank DataLoaders over the per-client shards — with the
        default iid policy those shards are bit-identical to
        :func:`shard_dataset`, preserving the fedavg ≡ local_sgd
        equivalence.  Sampled-cohort mode binds the N shards to the
        population instead and draws batches statelessly per
        ``(client, iteration)``, so only the cohort's data is ever touched
        and checkpoint resume needs no shuffle replay.
        """
        config = self.config
        population = self.population
        shards = partition_clients(train, population.num_clients,
                                   policy=self.clients_spec.data_skew,
                                   seed=config.seed,
                                   **self.clients_spec.data_skew_kwargs)
        if population.identity_assignment:
            self.loaders = []
            for client in range(config.world_size):
                loader = DataLoader(shards[client], batch_size=per_worker_batch,
                                    shuffle=True, drop_last=True,
                                    rng=self.seeds.for_worker(client, "batching"))
                self.loaders.append(loader)
            self.iterations_per_epoch = min(len(loader) for loader in self.loaders)
        else:
            population.bind_data(shards, per_worker_batch, seed=config.seed)
            self.loaders = []
            self.iterations_per_epoch = max(
                1, len(train) // (population.cohort_size * per_worker_batch))

    # ------------------------------------------------------------------ #
    # the four stages of one iteration (Algorithm 1 lines 2-7)
    # ------------------------------------------------------------------ #
    # Each stage is written once over the flat ``(P, n)`` world and decides
    # the task itself, so the lockstep loop, ``analysis/perf_backend`` and the
    # test-tree per-rank oracle (tests/reference_trainer.py, which overrides
    # two of them) make the same four calls.
    def _replica_step(self, rank: int, inputs, targets, state=None) -> tuple:
        """Forward → cross-entropy → backward → detach on one replica.

        The one per-replica step: the executor-less fallback (ragged LM
        shards) and the async engine's per-event gradient both call it.  The
        caller zeroes the gradients; returns ``(loss, carried BPTT state or
        None)``.
        """
        replica = self.replicas[rank]
        if self.spec.task == "language_model":
            logits, state = replica(inputs, state)
        else:
            logits = replica(Tensor(inputs))
        loss = F.cross_entropy(logits, targets)
        loss.backward()
        return loss.item(), None if state is None else replica.detach_state(state)

    def _gradients(self, batches: Sequence, states) -> tuple:
        """Stage 1 — every replica's local gradient (line 2).

        Returns ``(G, mean loss, states)``: ``G`` is the flat ``(P, n)``
        gradient matrix and ``states`` the carried BPTT state — one stacked
        state under the batched executor, one entry per rank otherwise;
        ``None`` at an epoch start, and classifiers never carry any.
        """
        world = self.flat_world
        if self.executor is not None:
            # One graph for all replicas; the executor writes every
            # parameter's gradient, so no zeroing pass is needed.
            inputs = np.stack([batch[0] for batch in batches])
            targets = np.stack([batch[1] for batch in batches])
            if self.spec.task == "language_model":
                losses, states = self.executor.forward_backward(inputs, targets, states)
            else:
                losses = self.executor.forward_backward(inputs, targets)
        else:
            # Per-replica loop; backward accumulates straight into the
            # zeroed gradient matrix.
            if states is None:
                states = [None] * len(batches)
            world.zero_grads()
            losses = []
            for rank, (inputs, targets) in enumerate(batches):
                loss, states[rank] = self._replica_step(rank, inputs, targets, states[rank])
                losses.append(loss)
        self._last_losses = np.asarray(losses, dtype=np.float64)
        return world.grad_matrix, float(np.mean(losses)), states

    def _exchange(self, G) -> tuple:
        """Stage 2 — the strategy synchronizes the gradients (lines 3-6)."""
        return self.sync_strategy.exchange_batched(G)

    def _apply(self, new, epoch_progress: float) -> float:
        """Stage 3 — the optimizer step (line 7); returns the learning rate.

        One fused kernel call updates every replica's row of the parameter
        and ``self._velocity_matrix`` momentum matrices.
        """
        lr = max(self.lr_policy.lr_at(epoch_progress, self.base_lr), 1e-12)
        optimizer = self.optimizer
        optimizer.set_lr(lr)
        dead = self._dead_ranks()
        world = self.flat_world
        # The fused kernel updates every row; a down rank must not advance,
        # so its parameter/velocity rows are snapshotted and put back.
        if dead:
            saved_params = world.param_matrix[dead].copy()
            saved_velocity = self._velocity_matrix[dead].copy()
        if isinstance(optimizer, LARS):
            lars_flat_update(world.param_matrix, new,
                             world.layout.offsets[:-1], world.layout.sizes, lr,
                             optimizer.momentum, optimizer.weight_decay,
                             optimizer.trust_coefficient, optimizer.eps,
                             velocity=self._velocity_matrix, scratch=self._step_scratch)
        else:
            sgd_flat_update(world.param_matrix, new, lr,
                            optimizer.momentum, optimizer.weight_decay,
                            optimizer.nesterov,
                            velocity=self._velocity_matrix, scratch=self._step_scratch)
        if dead:
            world.param_matrix[dead] = saved_params
            self._velocity_matrix[dead] = saved_velocity
        return lr

    def _parameter_phase(self, report):
        """Stage 4 — let the strategy exchange parameters after the step
        (local-SGD averaging, gossip).

        ``post_step_pending`` gates the whole phase: gradient-only
        strategies — and local-SGD iterations between sync points — cost one
        method call.  The strategy gets live views of the ``(P, n)``
        parameter matrix (zero copies).  Any parameter-exchange report is
        folded into the iteration's gradient report so the timeline prices it.
        """
        if not self.sync_strategy.post_step_pending():
            return report
        return merge_reports(
            report, self.sync_strategy.post_step(list(self.flat_world.param_matrix)))

    # ------------------------------------------------------------------ #
    # fault layer (the async engine has its own gate but shares _rejoin_rank)
    # ------------------------------------------------------------------ #
    def _dead_ranks(self) -> Optional[List[int]]:
        """Ranks currently out of membership, or ``None`` for a healthy world
        (the fast path — zero overhead without a fault layer)."""
        injector = self.fault_injector
        if injector is None or injector.membership.all_alive:
            return None
        return injector.membership.dead_ranks()

    def _fault_phase(self, state: TrainState) -> tuple:
        """Advance the fault layer at a lockstep iteration boundary.

        Rejoins run first (a rank whose outage ended catches up through a
        priced dense re-sync before the iteration), then new outages flip
        membership — model-driven schedules plus ``intermittent_dropout``
        compute stalls bridged to absences — each charging the barrier's
        timeout + bounded-backoff discovery penalty.  Message-loss models
        price reliable retransmission of the survivors' lockstep sends.

        Returns ``(alive_ranks_or_None, extra_simulated_seconds)``; with no
        injector this is ``(None, 0.0)`` and nothing else runs.
        """
        injector = self.fault_injector
        if injector is None:
            return None, 0.0
        membership = injector.membership
        now = self.lockstep_sim.now
        extra_s = 0.0
        world_size = self.config.world_size
        for rank in range(world_size):
            if membership.is_alive(rank):
                continue
            if injector.down_interval(rank, now) is not None:
                continue  # still inside its outage (or crashed for good)
            extra_s += self._rejoin_rank(rank)
        bridged = set()
        if injector.bridge_compute_stalls:
            draws = self.lockstep_sim.draw_iteration()
            bridged = {rank for rank, (_, stall) in enumerate(draws)
                       if stall > 0.0}
        for rank in range(world_size):
            if not membership.is_alive(rank):
                injector.report.lost_steps += 1
                continue
            if injector.down_interval(rank, now) is not None or rank in bridged:
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
            if all(injector.down_interval(rank, now) is not None
                   for rank in range(world_size)):
                ends = []
                for rank in range(world_size):
                    interval = injector.down_interval(rank, now)
                    if math.isfinite(interval[1]):
                        ends.append(interval[1])
                if not ends:
                    state.stop_requested = True
                    return [], extra_s
                horizon = min(ends)
                extra_s += horizon - now
                now = horizon
            for rank in range(world_size):
                if injector.down_interval(rank, now) is None:
                    extra_s += self._rejoin_rank(rank)
        if injector.affects_timing:
            # slow_node keeps the legacy timing-only reading: per-rank
            # stalls run in parallel and the slowest gates the barrier.
            stalls = [injector.extra_stall(rank)
                      for rank in membership.alive_ranks()]
            extra_s += max(stalls, default=0.0)
        if injector.affects_messages:
            # Per-rank retransmit ladders run in parallel; the unluckiest
            # survivor's backoff gates the barrier.
            penalties = [injector.retransmit_penalty_s(rank)
                         for rank in membership.alive_ranks()]
            extra_s += max(penalties, default=0.0)
        alive = None if membership.all_alive else membership.alive_ranks()
        return alive, extra_s

    def _rejoin_rank(self, rank: int) -> float:
        """Serve one rejoining rank its catch-up; returns the simulated cost.
        The one re-sync routine: the lockstep fault phase and the async
        engine's event gate both call it.

        The rank adopts the strategy's consensus (or the survivors' mean),
        zeroes its momentum, resets its compressor/codec state, and the
        dense re-sync is charged through the α–β model and the FaultReport.
        """
        injector = self.fault_injector
        membership = injector.membership
        strategy = self.sync_strategy
        n = self.num_parameters
        row = strategy.catch_up(rank)
        if row is None:
            alive = membership.alive_ranks()
            source = self.flat_world.param_matrix[alive] if alive \
                else self.flat_world.param_matrix[rank:rank + 1]
            row = source.mean(axis=0)
        row = np.asarray(row, dtype=np.float32).reshape(-1)
        self.flat_world.param_matrix[rank, :] = row
        self._velocity_matrix[rank, :] = 0.0
        if strategy.compressors:
            strategy.compressors[rank].reset_state()
        if strategy.parameter_codec is not None:
            strategy.parameter_codec.resync_rank(rank, row)
        resync_time = self.world.point_to_point(4.0 * n)
        injector.report.record_resync(4.0 * n)
        injector.report.record_rejoin(rank)
        membership.set_alive(rank, True)
        return resync_time

    # ------------------------------------------------------------------ #
    # training loop
    # ------------------------------------------------------------------ #
    def train(self) -> TrainingMetrics:
        """Run the full training schedule and return the per-epoch metrics."""
        state = self.state
        self._async_worker_rows = None
        self.callbacks.on_train_start(state)
        if self.sim_engine is not None:
            self.sim_engine.run(state)
        else:
            self._train_lockstep(state)
        if self.is_async:
            # finalize() collapses every worker row onto the consensus; keep
            # the live rows for checkpoints written after train().
            self._async_worker_rows = self.flat_world.param_matrix.copy()
        # Algorithm 1 lines 9-10: final dense consolidation of the replicas,
        # combined by the strategy's aggregator (mean reproduces the seed).
        matrix = self.flat_world.param_matrix
        for rank, row in enumerate(self.sync_strategy.finalize(list(matrix))):
            matrix[rank] = row
        if self.population is not None and self.sim_report is not None:
            self.sim_report.participation = self.population.summary()
        self.callbacks.on_train_end(state)
        return self.metrics

    def close(self) -> None:
        """Release execution-backend resources (idempotent).

        The in-process backend has none; the multiprocessing backend shuts
        its worker processes down and unlinks the shared-memory segments.
        Training results (metrics, replicas, checkpoints) remain usable
        after closing.
        """
        backend = getattr(self, "backend", None)
        if backend is not None:
            backend.close()

    def __enter__(self) -> "DistributedTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _begin_iteration(self, state: TrainState, epoch: int, iteration: int) -> float:
        state.epoch = epoch
        state.iteration = iteration
        state.epoch_progress = epoch + iteration / max(1, self.iterations_per_epoch)
        self.callbacks.on_iteration_start(state)
        return state.epoch_progress

    def _end_iteration(self, state: TrainState, loss: float, lr: float,
                       compute_time: float, report,
                       alive: Optional[List[int]] = None,
                       extra_s: float = 0.0) -> None:
        self._global_iteration += 1
        state.global_iteration = self._global_iteration
        state.loss = loss
        state.lr = lr
        state.compute_time_s = compute_time
        state.report = report
        if self.lockstep_sim is not None and report is not None:
            # Price the lockstep iteration before callbacks run so metrics
            # rows see the advanced simulated clock.
            duration = self.lockstep_sim.record_iteration(report, alive=alive,
                                                          extra_s=extra_s)
            if alive is not None and self.fault_injector is not None:
                for rank in self.fault_injector.membership.dead_ranks():
                    self.fault_injector.report.record_downtime(rank, duration)
        self.callbacks.on_iteration_end(state)

    def _end_epoch(self, state: TrainState, epoch: int, epoch_losses: List[float]) -> None:
        state.epoch = epoch
        state.epoch_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        if self.lockstep_sim is not None:
            self.lockstep_sim.record_epoch_mark()
        self.callbacks.on_epoch_end(state)

    def _resume_epoch(self) -> int:
        """Completed epochs of a checkpoint-restored run (0 when fresh).

        The loaders reshuffle from a stateful RNG each epoch, so the skipped
        epochs' permutations are replayed to line the shuffle stream up with
        the uninterrupted run's.
        """
        if not self._global_iteration or not self.iterations_per_epoch:
            return 0
        completed = self._global_iteration // self.iterations_per_epoch
        if completed >= self.config.epochs:
            # A finished run: train() runs the whole schedule again (the
            # long-standing retrain semantics); only an *interrupted* run
            # continues where it stopped.
            return 0
        for _ in range(completed):
            for loader in getattr(self, "loaders", []):
                if loader.shuffle:
                    loader.rng.permutation(len(loader.dataset))
                loader._epoch += 1
        return completed

    def _next_batches(self, iterators: List) -> List:
        """One slot-ordered batch list for the iteration.

        Sampled-cohort mode draws the active clients' batches statelessly
        from the population's shards; otherwise the per-rank loader streams
        advance exactly as in the seed trainer.
        """
        population = self.population
        if population is not None and population.shards is not None:
            return population.draw_batches(self._global_iteration)
        return [next(it) for it in iterators]

    def _epoch_iterators(self) -> List:
        """Fresh per-rank batch streams for one pass over the data."""
        if self.spec.task == "language_model":
            return [shard.batches() for shard in self.lm_shards]
        return [iter(loader) for loader in self.loaders]

    def _train_lockstep(self, state: TrainState) -> None:
        """The lockstep schedule: every iteration runs the fault phase and
        the four stages, for classifiers and language models alike."""
        for epoch in range(self._resume_epoch(), self.config.epochs):
            state.epoch = epoch
            self.callbacks.on_epoch_start(state)
            iterators = self._epoch_iterators()
            states = None               # BPTT state restarts with the epoch
            epoch_losses: List[float] = []
            for iteration in range(self.iterations_per_epoch):
                progress = self._begin_iteration(state, epoch, iteration)
                if self.population is not None:
                    # Round boundaries sit right after the previous round's
                    # parameter averaging; the cohort (and its slot state)
                    # must be in place before the gradients are computed.
                    self.population.begin_round(self)
                alive, extra_s = self._fault_phase(state)
                if state.stop_requested:
                    break
                batches = self._next_batches(iterators)
                start = time.perf_counter()
                G, loss, states = self._gradients(batches, states)
                compute_time = time.perf_counter() - start
                new, report = self._exchange(G)
                lr = self._apply(new, progress)
                report = self._parameter_phase(report)
                if alive is not None:
                    # Mean training loss over the surviving ranks only.
                    loss = float(np.mean(self._last_losses[alive]))
                epoch_losses.append(loss)
                self._end_iteration(state, loss, lr, compute_time, report,
                                    alive=alive, extra_s=extra_s)
                if state.stop_requested:
                    break
            self._end_epoch(state, epoch, epoch_losses)
            if state.stop_requested:
                break

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self) -> float:
        """Evaluate the consensus model.

        The strategy may provide its own consensus vector (async_ps's server
        parameters, EASGD's center); otherwise the consensus is the mean of
        the replicas, as in the seed trainer.
        """
        matrix = self.flat_world.param_matrix
        consensus = self.sync_strategy.consensus_vector()
        if consensus is None:
            # A down rank's stale replica must not pull the consensus.
            alive = self.fault_injector.membership.alive_ranks() \
                if self._dead_ranks() else []
            consensus = np.mean(matrix[alive] if alive else matrix, axis=0)
        probe = self.replicas[0]        # its parameters are views of row 0
        original = matrix[0].copy()
        matrix[0] = consensus
        try:
            if self.spec.task == "classification":
                value = evaluate_classifier(probe, self.test_dataset)
            else:
                value = evaluate_language_model(probe, self.test_batcher, max_batches=20)
        finally:
            matrix[0] = original
        return value

    # ------------------------------------------------------------------ #
    # accounting helpers used by the benchmarks
    # ------------------------------------------------------------------ #
    @property
    def wire_bits_per_iteration(self) -> float:
        """Analytic peak per-worker traffic of the configured synchronization.

        Strategy-aware: the default allreduce reports the compressor's
        Table-2 figure; local SGD reports its amortized parameter exchange
        (one payload every H iterations) and gossip the busiest rank's
        per-step neighbour payloads (max degree — the same critical path
        the α–β model prices).  With ``sync.parameter_compression`` the
        payload is the configured compressor's actual bits, not the dense
        32n, so sweeps over sync setups compare real traffic.
        """
        return self.sync_strategy.wire_bits_per_iteration(
            self.num_parameters, self.config.world_size)

    @property
    def sim_report(self):
        """The run's :class:`~repro.sim.report.SimReport`, or None.

        Present whenever simulated time is being tracked: always for async
        strategies, and for synchronous strategies configured with a
        ``compute_model``.
        """
        if self.sim_engine is not None:
            return self.sim_engine.report
        if self.lockstep_sim is not None:
            return self.lockstep_sim.report
        return None

    @property
    def simulated_time_s(self) -> float:
        """Simulated wall-clock of the run so far (seconds).

        The virtual clock when one is attached; otherwise the measured-model
        timeline total (compute + compression + communication +
        aggregation), which is what the seed trainer always reported.
        """
        if self.sim_engine is not None:
            return self.sim_engine.clock.now
        if self.lockstep_sim is not None:
            return self.lockstep_sim.now
        return self.timeline.total_s

    def mean_iteration_time(self) -> float:
        return self.timeline.mean_iteration_time()
