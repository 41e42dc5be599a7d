"""Asynchronous strategies driven by the virtual clock.

Unlike the lockstep strategies, these never see "one iteration's gradients
from every rank" — the simulator's :class:`repro.sim.engine.EventSchedule`
pops one completion event at a time and hands the strategy *one* rank's gradient via
:meth:`AsyncStrategy.worker_step`.  The strategy performs its numerics on
the shared flat ``(P, n)`` buffers, prices its traffic through the world's
α–β :meth:`~repro.comm.inprocess.InProcessWorld.point_to_point`, and returns
an :class:`AsyncStepReport` the simulator folds into the timeline/SimReport.

Two classic members of the family:

* ``async_ps`` — DOWNPOUR-style asynchronous parameter server.  Workers
  pull the server parameters, compute a gradient, and push it (through the
  rank's compressor).  The push carries a *staleness* ``τ = server_version −
  pull_version`` — how many other pushes the server absorbed since this
  worker last pulled.  Pushes with ``τ`` beyond ``staleness_bound`` are
  rejected (SSP-style bounded staleness); accepted pushes are scaled by
  ``staleness_penalty ** τ`` before the server's momentum-SGD/LARS update.
* ``easgd`` — elastic averaging.  Every worker runs *local* SGD and every
  ``period`` (τ) of its own steps does an elastic exchange with a center
  variable x̃: ``x_r ← x_r − ρ(x_r − x̃)``, ``x̃ ← x̃ + ρ(x_r − x̃)``.
  Training finalizes on the center.

Both expose ``state_arrays``/``load_state_arrays`` so checkpoints capture
server/center state, staleness counters and local-step phases, making
resumed trajectories bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compress.base import ExchangeKind
from repro.core.cost_model import DEFAULT_COMPRESSION_MODEL
from repro.core.timeline import SyncReport
from repro.sync.base import SYNC_STRATEGIES, SyncStrategy


@dataclass
class AsyncStepReport:
    """Outcome of one worker event, priced on the simulated clock."""

    comm_time_s: float = 0.0
    compression_time_s: float = 0.0
    wire_bits: float = 0.0
    exchange: str = "async"
    staleness: Optional[int] = None
    rejected: bool = False

    def to_sync_report(self) -> SyncReport:
        return SyncReport(compression_time_s=self.compression_time_s,
                          comm_time_s=self.comm_time_s,
                          wire_bits_per_worker=self.wire_bits,
                          exchange=self.exchange)


class AsyncStrategy(SyncStrategy):
    """Shared machinery for event-driven strategies."""

    is_async = True

    def __init__(self) -> None:
        super().__init__()
        self.engine = None

    # The lockstep entry point must never be reached: async strategies run
    # on the simulator's event schedule.
    def exchange_batched(self, G: np.ndarray):
        raise RuntimeError(f"async strategy {self.name!r} has no lockstep "
                           f"exchange; it runs on the simulation engine "
                           f"(repro.sim.engine)")

    @classmethod
    def compatibility_problems(cls, features) -> List[str]:
        problems = super().compatibility_problems(features)
        aggregator = features.aggregator
        if aggregator is not None and aggregator.collective_op is None:
            # Robust aggregators combine a lockstep (P, n) stack of per-rank
            # rows; the event loop applies one rank's update at a time.
            problems.append(
                f"async strategy {cls.name!r} applies one rank's update "
                f"at a time and cannot run a robust aggregator "
                f"({aggregator.name!r}); use the 'mean' aggregator")
        return problems

    # ------------------------------------------------------------------ #
    # engine protocol
    # ------------------------------------------------------------------ #
    def async_setup(self, engine) -> None:
        """Attach to the run's :class:`~repro.sim.engine.Simulator` once.

        Idempotent across resumed ``train()`` calls: state initialized here
        must survive ``load_state_arrays`` having run first.
        """
        self.engine = engine

    def worker_step(self, rank: int, lr: float) -> AsyncStepReport:
        """Process one completion event for ``rank``.

        The rank's fresh gradient is in ``engine.grad_matrix[rank]`` and its
        live parameters in ``engine.param_matrix[rank]``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # checkpoint protocol
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Strategy state as named arrays for the checkpoint writer."""
        return {}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore state saved by :meth:`state_arrays`."""

    # ------------------------------------------------------------------ #
    def _p2p(self, message_bytes: float) -> float:
        """Price one point-to-point message on the world's α–β model."""
        return self.world.point_to_point(message_bytes)


@SYNC_STRATEGIES.register("async_ps", aliases=("downpour", "parameter_server"),
                          description="DOWNPOUR-style async parameter server "
                                      "with bounded-staleness pushes")
class AsyncParameterServerStrategy(AsyncStrategy):
    """Asynchronous parameter server with bounded staleness.

    The server keeps the authoritative parameter vector plus its own
    momentum buffer and applies pushes with the trainer's optimizer kernel
    (SGD or LARS) — one ``(1, n)`` fused update per push.  Workers always
    leave a step holding the latest server parameters (even when their push
    was rejected for exceeding ``staleness_bound``).
    """

    name = "async_ps"

    @classmethod
    def exchanges_gradients(cls, period: int = 1) -> bool:
        return True

    def __init__(self, staleness_bound: int = 32, staleness_penalty: float = 1.0):
        super().__init__()
        if isinstance(staleness_bound, bool) or not isinstance(staleness_bound, int) \
                or staleness_bound < 0:
            raise ValueError(f"staleness_bound must be an integer >= 0, "
                             f"got {staleness_bound!r}")
        penalty = float(staleness_penalty)
        if not 0.0 < penalty <= 1.0:
            raise ValueError(f"staleness_penalty must be in (0, 1], "
                             f"got {staleness_penalty!r}")
        self.staleness_bound = staleness_bound
        self.staleness_penalty = penalty
        # Server state (created in async_setup, overwritten by checkpoints).
        self.server_params: Optional[np.ndarray] = None
        self.server_velocity: Optional[np.ndarray] = None
        self.version: int = 0
        self.pull_versions: Optional[np.ndarray] = None
        self.staleness_histogram: Dict[int, int] = {}
        self.rejected_pushes: int = 0

    @classmethod
    def compatibility_problems(cls, features) -> List[str]:
        problems = super().compatibility_problems(features)
        compressor = features.compressor
        if compressor is not None \
                and compressor.exchange is not ExchangeKind.ALLREDUCE:
            problems.append(
                f"async strategy {cls.name!r} pushes single-rank "
                f"payloads, but compressor {compressor.name!r} uses an "
                f"allgather exchange that cannot be decompressed "
                f"rank-locally; use an allreduce-kind compressor "
                f"(dense, a2sgd)")
        return problems

    # ------------------------------------------------------------------ #
    def async_setup(self, engine) -> None:
        super().async_setup(engine)
        if self.server_params is None:
            # All replicas start identical; adopt rank 0's vector as the server.
            self.server_params = engine.param_matrix[0].copy()
            self.server_velocity = np.zeros_like(self.server_params)
            self.pull_versions = np.zeros(self.world.world_size, dtype=np.int64)
        self._scratch = np.empty((1, self.server_params.size), dtype=np.float32)

    def worker_step(self, rank: int, lr: float) -> AsyncStepReport:
        engine = self.engine
        n = self.server_params.size
        gradient = engine.grad_matrix[rank]
        if self.corruption is not None:
            self.corruption.apply_vector(rank, gradient)

        # Push: the worker ships its compressed gradient; the server rebuilds
        # it with the rank's own decompressor (allreduce-kind payloads are
        # rank-locally reconstructible, and error feedback stays per rank).
        compressor = self.compressors[rank]
        payload, ctx = compressor.compress(gradient)
        decoded = compressor.decompress(payload, ctx)
        compression_s = DEFAULT_COMPRESSION_MODEL.compression_time(compressor.name, n)
        push_bits = compressor.wire_bits(n)

        # A push lost in transit (message-loss fault) never reaches the
        # server: no staleness bookkeeping, no version bump — the gradient
        # is simply gone.  The worker still pulls fresh parameters below.
        push_dropped = getattr(engine, "push_dropped", None)
        if push_dropped is not None and push_dropped(rank):
            engine.param_matrix[rank, :] = self.server_params
            self.pull_versions[rank] = self.version
            comm_time = self._p2p(push_bits / 8.0) + self._p2p(4.0 * n)
            return AsyncStepReport(comm_time_s=comm_time,
                                   compression_time_s=compression_s,
                                   wire_bits=push_bits + 32.0 * n,
                                   exchange="ps_push_lost")

        staleness = int(self.version - int(self.pull_versions[rank]))
        self.staleness_histogram[staleness] = \
            self.staleness_histogram.get(staleness, 0) + 1
        rejected = staleness > self.staleness_bound
        if rejected:
            self.rejected_pushes += 1
        else:
            scale = self.staleness_penalty ** staleness
            update = decoded if scale == 1.0 \
                else np.asarray(decoded, dtype=np.float32) * np.float32(scale)
            engine.flat_update(self.server_params.reshape(1, n),
                               np.asarray(update, dtype=np.float32).reshape(1, n),
                               lr,
                               velocity=self.server_velocity.reshape(1, n),
                               scratch=self._scratch)
            self.version += 1

        # Pull: the worker leaves with the latest server parameters.
        engine.param_matrix[rank, :] = self.server_params
        self.pull_versions[rank] = self.version

        comm_time = self._p2p(push_bits / 8.0) + self._p2p(4.0 * n)
        return AsyncStepReport(comm_time_s=comm_time,
                               compression_time_s=compression_s,
                               wire_bits=push_bits + 32.0 * n,
                               exchange="ps_push_pull",
                               staleness=staleness,
                               rejected=rejected)

    # ------------------------------------------------------------------ #
    def consensus_vector(self) -> Optional[np.ndarray]:
        return None if self.server_params is None else self.server_params

    def catch_up(self, rank: int) -> Optional[np.ndarray]:
        """A rejoining worker gets a fresh pull: the authoritative server
        parameters, with its pull version advanced so the first push after
        rejoin carries zero staleness."""
        if self.server_params is None:
            return super().catch_up(rank)
        self.pull_versions[rank] = self.version
        return self.server_params.copy()

    def finalize(self, parameter_vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
        if self.server_params is None:
            return super().finalize(parameter_vectors)
        return [self.server_params.copy() for _ in parameter_vectors]

    def wire_bits_per_iteration(self, n: int, world_size: int) -> float:
        # Per worker step: one compressed push up, one dense pull down.
        return self.compressors[0].wire_bits(n) + 32.0 * n

    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        if self.server_params is None:
            return {}
        keys = np.array(sorted(self.staleness_histogram), dtype=np.int64)
        counts = np.array([self.staleness_histogram[int(k)] for k in keys],
                          dtype=np.int64)
        return {
            "server_params": self.server_params.copy(),
            "server_velocity": self.server_velocity.copy(),
            "version": np.array([self.version], dtype=np.int64),
            "pull_versions": self.pull_versions.copy(),
            "staleness_keys": keys,
            "staleness_counts": counts,
            "rejected_pushes": np.array([self.rejected_pushes], dtype=np.int64),
        }

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self.server_params = np.asarray(arrays["server_params"],
                                        dtype=np.float32).copy()
        self.server_velocity = np.asarray(arrays["server_velocity"],
                                          dtype=np.float32).copy()
        self.version = int(arrays["version"][0])
        self.pull_versions = np.asarray(arrays["pull_versions"],
                                        dtype=np.int64).copy()
        self.staleness_histogram = {
            int(k): int(c) for k, c in zip(arrays["staleness_keys"],
                                           arrays["staleness_counts"])}
        self.rejected_pushes = int(arrays["rejected_pushes"][0])
        self._scratch = np.empty((1, self.server_params.size), dtype=np.float32)


@SYNC_STRATEGIES.register("easgd", aliases=("elastic_averaging",),
                          description="elastic averaging: local SGD with "
                                      "periodic elastic pull toward a center "
                                      "variable")
class ElasticAveragingStrategy(AsyncStrategy):
    """EASGD: local steps with an elastic link to a center variable.

    ``period`` (the sync section's τ knob) is the number of *local* steps
    between elastic exchanges; ``moving_rate`` is ρ.  The center is the
    consensus model used for evaluation and finalization.
    """

    name = "easgd"
    uses_period = True

    def __init__(self, moving_rate: float = 0.5):
        super().__init__()
        rho = float(moving_rate)
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"moving_rate must be in (0, 1], got {moving_rate!r}")
        self.moving_rate = rho
        self.center: Optional[np.ndarray] = None
        self.local_steps: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def async_setup(self, engine) -> None:
        super().async_setup(engine)
        if self.center is None:
            self.center = engine.param_matrix[0].copy()
            self.local_steps = np.zeros(self.world.world_size, dtype=np.int64)

    def worker_step(self, rank: int, lr: float) -> AsyncStepReport:
        engine = self.engine
        if self.corruption is not None:
            self.corruption.apply_vector(rank, engine.grad_matrix[rank])
        engine.apply_local_step(rank, lr)
        self.local_steps[rank] += 1
        if self.local_steps[rank] % self.period != 0:
            return AsyncStepReport(exchange="local")

        # An elastic exchange whose upload is lost (message-loss fault)
        # leaves both the worker and the center untouched: the round trip
        # never completed.  The attempted upload is still priced.
        n = self.center.size
        push_dropped = getattr(engine, "push_dropped", None)
        if push_dropped is not None and push_dropped(rank):
            return AsyncStepReport(comm_time_s=self._p2p(4.0 * n),
                                   wire_bits=32.0 * n,
                                   exchange="elastic_lost")

        # Elastic exchange with the center.  A Byzantine rank lies to the
        # center (staged corrupted copy) but keeps its own row honest.
        x = engine.param_matrix[rank]
        staged = x
        if self.corruption is not None and rank in self.corruption.ranks:
            staged = self.corruption.staged([x])[0]
        rho = np.float32(self.moving_rate)
        diff = x - self.center
        center_diff = diff if staged is x else staged - self.center
        np.subtract(x, rho * diff, out=x)
        self.center += rho * center_diff
        comm_time = self._p2p(4.0 * n) + self._p2p(4.0 * n)
        return AsyncStepReport(comm_time_s=comm_time,
                               wire_bits=64.0 * n,
                               exchange="elastic")

    # ------------------------------------------------------------------ #
    def consensus_vector(self) -> Optional[np.ndarray]:
        return None if self.center is None else self.center

    def catch_up(self, rank: int) -> Optional[np.ndarray]:
        """A rejoining worker adopts the center and restarts its local-step
        phase, exactly like a worker that just joined the run."""
        if self.center is None:
            return super().catch_up(rank)
        self.local_steps[rank] = 0
        return self.center.copy()

    def finalize(self, parameter_vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
        if self.center is None:
            return super().finalize(parameter_vectors)
        return [self.center.copy() for _ in parameter_vectors]

    def wire_bits_per_iteration(self, n: int, world_size: int) -> float:
        # One dense round trip every `period` local steps, amortized.
        return 64.0 * n / max(1, self.period)

    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        if self.center is None:
            return {}
        return {"center": self.center.copy(),
                "local_steps": self.local_steps.copy()}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self.center = np.asarray(arrays["center"], dtype=np.float32).copy()
        self.local_steps = np.asarray(arrays["local_steps"], dtype=np.int64).copy()
