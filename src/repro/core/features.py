"""What one run *is*: derived once, read by ``validate()`` and the trainer.

A :class:`RunFeatures` record resolves the declarative sections of a
:class:`~repro.core.trainer.TrainerConfig` (or anything carrying its field
names, e.g. an :class:`~repro.core.spec.ExperimentSpec`) exactly once and
holds the facts every compatibility rule reads — task, strategy class,
async-ness, period, whether faults are injected, the compressor class (and
with it the exchange kind), the defaulted compute model, the optimizer the
lr policy selects.

:meth:`RunFeatures.problems` is the one compatibility check:
``ExperimentSpec.validate()`` raises its list as a ``SpecError`` and
``DistributedTrainer.__init__`` raises the same list as a ``ValueError``,
then builds from the record instead of resolving anything again.  Each
cross-feature rule is written on the component that owns it — the sync,
faults and clients sections and the backend implement ``problems(features)``,
strategies and backends ``compatibility_problems(features)`` — so registered
plug-ins carry their own rules and the "capability table" is the union of
what the owners return.

(A module of its own only because ``core/spec.py`` imports
``core/trainer.py`` and both need it.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.backends import resolve_backend
from repro.comm.network_model import NetworkModel, resolve_network
from repro.comm.topology import TOPOLOGIES
from repro.compress.registry import COMPRESSORS
from repro.faults import FaultSpec
from repro.federated import ClientSpec
from repro.models.registry import MODELS, ModelSpec, list_models, list_presets
from repro.nn.module import Parameter
from repro.optim.lr_schedule import CompositeLRPolicy, build_lr_policy
from repro.optim.registry import OPTIMIZERS
from repro.registry import Registry
from repro.sim.compute import ComputeTimeModel, resolve_compute_model
from repro.sync import AGGREGATORS, SYNC_STRATEGIES, SyncSpec


def _is_int(value: object, minimum: Optional[int] = None) -> bool:
    """A real integer (``bool`` is an ``int`` subclass and must not pass)."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and (minimum is None or value >= minimum)


def _registered(registry: Registry, name: object) -> Optional[type]:
    """The class registered under ``name``; None when unregistered (the
    owning section reports unknown names, with suggestions)."""
    return registry.get(str(name)) if str(name) in registry else None


@dataclass(frozen=True)
class RunFeatures:
    """The resolved facts of one run (see the module docstring).

    Every field defaults to "unknown" so :meth:`SyncStrategy.bind
    <repro.sync.base.SyncStrategy.bind>` can state just the class-level
    facts it was handed; :meth:`of` fills all of them.
    """

    #: The ``TrainerConfig`` / ``ExperimentSpec`` this was derived from.
    config: object = None
    #: Messages of the fields that could not be resolved (their value
    #: below is then None).
    errors: Tuple[str, ...] = ()
    #: ``config.world_size`` when it is an integer >= 1, else None.
    world_size: Optional[int] = None
    model_spec: Optional[ModelSpec] = None
    network: Optional[NetworkModel] = None
    #: The resolved ``sync`` / ``faults`` / ``clients`` sections.
    sync: Optional[SyncSpec] = None
    faults: Optional[FaultSpec] = None
    clients: Optional[ClientSpec] = None
    #: Registered classes the run names (None when unregistered): execution
    #: backend, gradient compressor, sync strategy, aggregator, the topology
    #: the strategy binds (None when it binds none) and the parameter-phase
    #: compressor (None when parameters travel dense).
    backend: Optional[type] = None
    compressor: Optional[type] = None
    strategy: Optional[type] = None
    aggregator: Optional[type] = None
    topology: Optional[type] = None
    parameter_compressor: Optional[type] = None
    #: The sync period H (1 when unset or not an integer).
    period: int = 1
    #: The clock's compute-time model, "constant" unless the config names
    #: one: every run keeps simulated time (None only when unresolvable).
    compute_model: Optional[ComputeTimeModel] = None
    #: Table-1 learning-rate policy, the optimizer it selects ("lars" or
    #: "sgd") and the base learning rate (``config.base_lr`` or Table 1's).
    lr_policy: Optional[CompositeLRPolicy] = None
    optimizer: str = "sgd"
    base_lr: object = None

    # ------------------------------------------------------------------ #
    # derived facts
    # ------------------------------------------------------------------ #
    @property
    def task(self) -> Optional[str]:
        """``"classification"`` / ``"language_model"`` (None: unknown model)."""
        return None if self.model_spec is None else self.model_spec.task

    @property
    def is_async(self) -> bool:
        """Whether the strategy trains on the virtual-clock event loop."""
        return bool(getattr(self.strategy, "is_async", False))

    @property
    def faults_active(self) -> bool:
        return self.faults is not None and self.faults.active

    @property
    def bridge_compute_stalls(self) -> bool:
        """Whether ``intermittent_dropout`` compute stalls become membership
        absences: on the lockstep paths a dropped rank is *absent*, not slow."""
        return (not self.is_async and self.compute_model is not None
                and self.compute_model.name == "intermittent_dropout")

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, config) -> "RunFeatures":
        """Resolve ``config``'s fields once; already-built values
        (``SyncSpec``, ``NetworkModel``, a ``ComputeTimeModel``) pass through."""
        errors: List[str] = []

        def resolved(resolve: Callable, value: object, label: str = ""):
            try:
                return resolve(value)
            except (KeyError, TypeError, ValueError) as error:
                errors.extend(label + line for line in str(error).splitlines())
                return None

        world_size = config.world_size if _is_int(config.world_size, 1) else None
        model_key = f"{config.model}/{config.preset}"
        model_spec = MODELS.get(model_key) if model_key in MODELS else None
        compressor = resolved(COMPRESSORS.get, str(config.algorithm))
        network = resolved(resolve_network, config.network)
        sync = resolved(SyncSpec.resolve, config.sync)
        compute_model = resolved(
            resolve_compute_model,
            "constant" if config.compute_model is None else config.compute_model,
            "compute_model: ")
        faults = resolved(FaultSpec.resolve, config.faults)
        backend = resolved(resolve_backend, config.backend)
        clients = resolved(ClientSpec.resolve, config.clients)

        strategy = aggregator = topology = parameter_compressor = None
        period = 1
        if sync is not None:
            strategy = _registered(SYNC_STRATEGIES, sync.strategy)
            aggregator = _registered(AGGREGATORS, sync.aggregator)
            topology = _registered(TOPOLOGIES, sync.topology)
            if strategy is None or topology is None or not strategy.binds(topology):
                topology = None
            if sync.compresses_parameters:
                parameter_compressor = _registered(COMPRESSORS,
                                                   sync.parameter_compression)
            period = sync.period if _is_int(sync.period) else 1

        lr_policy, optimizer, base_lr = None, "sgd", config.base_lr
        if model_spec is not None:
            if base_lr is None:
                base_lr = model_spec.base_lr
            if world_size is not None and _is_int(config.epochs, 1):
                lr_policy, use_lars = build_lr_policy(
                    model_spec.lr_policy, world_size=world_size,
                    total_epochs=config.epochs)
                optimizer = "lars" if use_lars else "sgd"
        return cls(config=config, errors=tuple(errors), world_size=world_size,
                   model_spec=model_spec, network=network, sync=sync,
                   faults=faults, clients=clients, backend=backend,
                   compressor=compressor, strategy=strategy,
                   aggregator=aggregator, topology=topology,
                   parameter_compressor=parameter_compressor, period=period,
                   compute_model=compute_model, lr_policy=lr_policy,
                   optimizer=optimizer, base_lr=base_lr)

    # ------------------------------------------------------------------ #
    # the one compatibility check
    # ------------------------------------------------------------------ #
    def problems(self) -> List[str]:
        """Every reason the trainer cannot run this, as actionable messages
        (empty = runnable; data sizing is the one thing not checked — the
        default dataset sizes live inside the dataset builders)."""
        config = self.config
        problems = list(self.errors)
        # Same normalized lookup the runtime uses, so a spec get_model_spec()
        # would accept (e.g. "lstm-ptb") is never rejected.
        if self.model_spec is None:
            problems.append(f"unknown model/preset {config.model!r}/{config.preset!r}; "
                            f"models: {list_models()}, presets for a model via "
                            f"list_presets(); e.g. fnn3 has {list_presets('fnn3')}")
        for name, minimum in (("world_size", 1), ("epochs", 1), ("eval_every", 1),
                              ("seq_len", 2)):
            value = getattr(config, name)
            if not _is_int(value, minimum):
                problems.append(f"{name} must be an integer >= {minimum}, got {value!r}")
        for name in ("batch_size", "max_iterations_per_epoch", "num_train", "num_test"):
            value = getattr(config, name)
            if value is not None and not _is_int(value, 1):
                problems.append(f"{name} must be None or an integer >= 1, got {value!r}")
        for name in ("seed", "clock_seed", "fault_seed"):
            if not _is_int(getattr(config, name)):
                problems.append(f"{name} must be an integer, got {getattr(config, name)!r}")

        # Constructibility: build what the trainer will build.
        if not isinstance(config.compressor_kwargs, dict):
            problems.append(f"compressor_kwargs must be a dict, "
                            f"got {type(config.compressor_kwargs).__name__}")
        elif self.compressor is not None:
            problems.extend(COMPRESSORS.construction_problems(
                self.compressor.name, config.compressor_kwargs))
        if self.model_spec is not None:
            problems.extend(OPTIMIZERS.construction_problems(
                self.optimizer,
                {"lr": self.base_lr, "momentum": config.momentum,
                 "weight_decay": config.weight_decay},
                [Parameter(np.zeros(1, dtype=np.float32))]))

        if self.compute_model is not None and self.world_size is not None:
            try:    # e.g. straggler ranks outside the world
                self.compute_model.bind(self.world_size, 0)
            except ValueError as error:
                problems.append(f"compute_model: {error}")

        for owner in (self.sync, self.faults, self.clients, self.backend):
            if owner is not None:
                problems.extend(owner.problems(self))
        return problems
