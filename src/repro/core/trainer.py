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

The trainer owns the world and the four stages; the epoch loop that calls
them is the run's :class:`repro.sim.engine.Simulator`, on its barrier
schedule (or, for async strategies, its event schedule).  Cross-cutting
concerns — metrics collection, evaluation cadence, checkpointing, progress
logging — live in :mod:`repro.core.callbacks`, not here: the simulator's
loop drives the ``Callback`` lifecycle hooks and new per-iteration
behaviours plug in as callbacks without touching this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.comm.inprocess import InProcessWorld
from repro.comm.network_model import NetworkModel
from repro.compress.registry import get_compressor
from repro.core.batched_replicas import RankExecutors
from repro.core.callbacks import (
    Callback,
    CallbackList,
    EvaluationCallback,
    MetricsCallback,
    TrainState,
    resolve_callbacks,
)
from repro.core.features import RunFeatures
from repro.core.flat_buffer import RowSnapshot, WorldFlatBuffers
from repro.core.metrics import TrainingMetrics, evaluate_classifier, evaluate_language_model
from repro.core.trainer_state import ModuleBuffers, Progress, WorldRows
from repro.data.dataloader import DataLoader, shard_dataset
from repro.data.partition import partition_clients
from repro.data.registry import get_dataset
from repro.faults import FaultSpec
from repro.federated import ClientPopulation, ClientSpec
from repro.data.synthetic_text import LanguageModelBatcher
from repro.models.registry import ModelSpec
from repro.nn.module import Module
from repro.optim.registry import OPTIMIZERS
# The optimizer kernels run through Simulator.flat_update; these two names
# stay importable here because benchmarks/perf/tracing.py patches them, and
# Benchmark v2 (which reads trainer.simulator) drops them.
from repro.optim.lars import lars_flat_update  # noqa: F401
from repro.optim.sgd import sgd_flat_update  # noqa: F401
from repro.sim.engine import Simulator
from repro.sync import SyncSpec, merge_reports
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
    #: Compute-time model for the simulated clock: None ("constant"), a
    #: registered name ("constant", "lognormal", "straggler",
    #: "intermittent_dropout"), a ``{"name": ..., **kwargs}`` dict, or a
    #: :class:`repro.sim.compute.ComputeTimeModel` instance.  Every run keeps
    #: simulated time on one :class:`repro.sim.engine.Simulator`: async
    #: strategies step on its event schedule, synchronous ones on its
    #: barrier schedule, which prices each iteration without touching the
    #: numerics.
    compute_model: Optional[object] = None
    #: Seed for the per-rank compute-time draws (independent of ``seed`` so
    #: timing noise never perturbs the training numerics).
    clock_seed: int = 0
    #: Fault-injection setup: None (the default — no faults: every rank
    #: stays alive), a registered fault-model name
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
    after the built-in evaluation/metrics callbacks, in order.
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
        self.sync_strategy = self.sync_spec.build(self.world, self.compressors,
                                                  seeds=self.seeds)
        #: Whether the bound strategy steps on the simulator's event schedule.
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
        self._setup_data()
        # The executor stacks all ranks into one graph, for the barrier
        # schedule and the event schedule's gradient waves alike.  LM shards of
        # unequal width (batch not divisible by P) cannot be stacked, so each
        # rank runs its own P = 1 executor in turn.
        if (self.spec.task == "language_model"
                and len({shard.batch_size for shard in self.lm_shards}) != 1):
            self.executor = RankExecutors(self.replicas, self.flat_world,
                                          self.spec.task)
        else:
            self.executor = self.backend.create_executor(self)
        self.metrics = TrainingMetrics(metric_name=self.spec.metric)
        self._global_iteration = 0
        #: The worker rows as they stood before train()'s finalize() replaced
        #: them with the consensus; the next train() — on this trainer or on
        #: one loaded from a checkpoint written after it — continues from them.
        self._worker_rows: Optional[np.ndarray] = None

        # Fault layer: membership mask + injector.  ``intermittent_dropout``
        # compute stalls are bridged to membership absences on the lockstep
        # paths (the timing-only behaviour lives on as the ``slow_node``
        # fault model).  Without a fault layer the world keeps its own
        # all-alive membership and the injector is None.
        self.fault_injector = self.fault_spec.build(
            config.world_size, seed=config.fault_seed,
            bridge_compute_stalls=features.bridge_compute_stalls)
        self._last_losses: Optional[np.ndarray] = None
        if self.fault_injector is not None:
            self.world.membership = self.fault_injector.membership

        # Simulated time, the run's one time base, and the only epoch loop:
        # async strategies step on the simulator's event schedule,
        # synchronous ones on its barrier schedule.
        self.simulator = Simulator(self, features.compute_model, config.clock_seed)
        self.timeline = self.simulator.timeline
        # The simulator under its schedule's old name, or None; only
        # benchmarks/perf reads these, and Benchmark v2 removes them.
        self.sim_engine = self.simulator if self.is_async else None
        self.lockstep_sim = None if self.is_async else self.simulator

        # Checkpointed state: each owner implements state_arrays() /
        # load_state_arrays() under its own key prefix; core/checkpoint.py is
        # one loop over this list each way.  New subsystems append themselves.
        owners = [("", WorldRows(self)),
                  ("buffers_", ModuleBuffers(self)),
                  ("sync_param_", self.sync_strategy.parameter_codec),
                  ("sim_", self.simulator),
                  ("sync_async_", self.sync_strategy if self.is_async else None),
                  ("fault_", self.fault_injector),
                  ("clients_", self.population),
                  ("", Progress(self))]
        self.checkpoint_owners = [(prefix, owner) for prefix, owner in owners
                                  if owner is not None]

        # Lifecycle plugins.  The built-ins reproduce the seed trainer's
        # behaviour (evaluation before metrics so the epoch row has its
        # metric value); user callbacks run after them in the order given.
        self.state = TrainState(trainer=self)
        self.callbacks = CallbackList([EvaluationCallback(), MetricsCallback(),
                                       *resolve_callbacks(callbacks)])

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
        population instead: each client's batch stream jumps to the
        iteration, so a batch is a function of ``(seed, client, iteration)``,
        only the cohort's data is ever touched, and checkpoint resume needs
        no shuffle replay.
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
    # the task itself, so the barrier schedule, ``analysis/perf_backend`` and the
    # test-tree per-rank oracle (tests/reference_trainer.py, which overrides
    # the first three with per-rank loops) make the same four calls.
    def _gradients(self, batches: Sequence, states) -> tuple:
        """Stage 1 — every replica's local gradient (line 2).

        One executor call writes every parameter's gradient into the flat
        ``(P, n)`` matrix, so no zeroing pass is needed.  Returns ``(G, mean
        loss, states)``: ``G`` is that matrix and ``states`` the carried BPTT
        state — one stacked state, or one per rank under
        :class:`RankExecutors`; ``None`` at an epoch start, and classifiers
        never carry any.
        """
        inputs = [batch[0] for batch in batches]
        targets = [batch[1] for batch in batches]
        if self.spec.task == "language_model":
            losses, states = self.executor.forward_backward(inputs, targets, states)
        else:
            losses = self.executor.forward_backward(np.stack(inputs), np.stack(targets))
        self._last_losses = np.asarray(losses, dtype=np.float64)
        return self.flat_world.grad_matrix, float(np.mean(losses)), states

    def _exchange(self, G) -> tuple:
        """Stage 2 — the strategy synchronizes the gradients (lines 3-6)."""
        return self.sync_strategy.exchange_batched(G)

    def _apply(self, new, epoch_progress: float) -> float:
        """Stage 3 — the optimizer step (line 7); returns the learning rate.

        One fused kernel call — the simulator's, which async workers and a
        parameter server step through too — updates every replica's row of
        the parameter and ``self._velocity_matrix`` momentum matrices.
        """
        lr = self._lr_at(epoch_progress)
        self.optimizer.set_lr(lr)
        world = self.flat_world
        # The fused kernel updates every row; a down rank must not advance,
        # so its parameter/velocity rows are snapshotted and put back.
        dead = RowSnapshot(lambda rank: (world.param_matrix[rank],
                                         self._velocity_matrix[rank]),
                           self.world.membership.dead_ranks())
        self.simulator.flat_update(world.param_matrix, new, lr,
                                   velocity=self._velocity_matrix,
                                   scratch=self._step_scratch)
        dead.restore()
        return lr

    def _lr_at(self, epoch_progress: float) -> float:
        """The learning rate at a fractional epoch (floored above zero)."""
        return max(self.lr_policy.lr_at(epoch_progress, self.base_lr), 1e-12)

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
    # fault layer (each schedule has its own gate; both call _rejoin_rank)
    # ------------------------------------------------------------------ #
    def _rejoin_rank(self, rank: int) -> float:
        """Serve one rejoining rank its catch-up; returns the simulated cost.
        The one re-sync routine: the barrier schedule's fault phase and the
        event schedule's fault gate both call it.

        The rank adopts the strategy's consensus (or the survivors' mean),
        zeroes its momentum, resets its compressor/codec state, and the
        dense re-sync is charged through the α–β model and the FaultReport.
        """
        injector = self.fault_injector
        membership = self.world.membership
        strategy = self.sync_strategy
        n = self.num_parameters
        row = strategy.catch_up(rank)
        if row is None:
            alive = membership.alive_ranks()
            source = self.flat_world.param_matrix[alive] if alive.size \
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
        matrix = self.flat_world.param_matrix
        if self._worker_rows is not None:
            # Called again: continue each rank's own trajectory, as a run
            # resumed from a checkpoint written after the last train() does.
            matrix[:] = self._worker_rows
            self._worker_rows = None
        self.callbacks.on_train_start(state)
        self.simulator.run(state)
        # Algorithm 1 lines 9-10: final dense consolidation of the replicas,
        # combined by the strategy's aggregator (mean reproduces the seed).
        self._worker_rows = matrix.copy()
        for rank, row in enumerate(self.sync_strategy.finalize(list(matrix))):
            matrix[rank] = row
        if self.population is not None:
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

    def _next_batches(self, iterators: List) -> List:
        """One slot-ordered batch list for the iteration.

        Sampled-cohort mode gathers the active clients' batches, each a
        function of ``(seed, client, iteration)``, from the population's
        shards; otherwise the per-rank loader streams advance exactly as in
        the seed trainer.
        """
        population = self.population
        if population is not None and population.shards is not None:
            return population.draw_batches(self._global_iteration)
        return [next(it) for it in iterators]

    def _streams(self) -> List:
        """The per-rank batch sources: LM shards, or loaders (none when a
        sampled cohort's batches are a function of the iteration)."""
        return self.lm_shards if self.spec.task == "language_model" else self.loaders

    def _epoch_iterators(self) -> List:
        """Per-rank batch streams for one pass over the data: a new pass, or
        the rest of a pass a checkpoint restored."""
        if self.spec.task == "language_model":
            return [shard.batches() for shard in self.lm_shards]
        return [iter(loader) for loader in self.loaders]

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
            # A down rank's stale replica must not pull the consensus (with
            # every rank down, the replicas' mean stands in).
            membership = self.world.membership
            rows = membership.gather(matrix) if membership.num_alive else matrix
            consensus = np.mean(rows, axis=0)
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
        """The run's :class:`~repro.sim.report.SimReport`; every run has one."""
        return self.simulator.report

    @property
    def simulated_time_s(self) -> float:
        """Simulated wall-clock of the run so far (seconds): the simulator's
        clock, the run's one time base.  On the barrier schedule it equals
        ``timeline.total_s`` up to float rounding."""
        return self.simulator.now
