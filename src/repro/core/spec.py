"""Declarative experiment specification.

An :class:`ExperimentSpec` is the single serializable description of one
cell of the paper's evaluation grid (model × compressor × world-size ×
network).  It *derives* the trainer's :class:`~repro.core.trainer.TrainerConfig`
field-by-field from ``dataclasses.fields`` instead of hand-mirroring it, so
adding a trainer knob automatically makes it spec- and JSON-addressable.

The spec round-trips through JSON::

    spec = ExperimentSpec(model="fnn3", algorithm="a2sgd", world_size=8)
    spec.to_file("spec.json")
    same = ExperimentSpec.from_file("spec.json")
    assert same.to_trainer_config() == spec.to_trainer_config()

and powers ``repro run --config spec.json`` / ``repro validate`` as well as
:func:`repro.core.experiment.run_experiment` and the sweeps in
:mod:`repro.analysis.sweeps`.

Non-scalar fields serialize declaratively:

* ``network`` — ``None``, a registered fabric name (``"ethernet_10gbps"``),
  or ``{"latency_s": ..., "bandwidth_Bps": ..., "name": ...}``;
* ``callbacks`` — registered names (``"progress"``) or
  ``{"name": "early_stopping", "patience": 2}`` dicts, resolved through the
  ``CALLBACKS`` registry when the trainer is built;
* ``sync`` — ``None`` (the paper's allreduce + mean), a
  :class:`repro.sync.SyncSpec`, or its dict form
  (``{"strategy": "gossip", "topology": "ring", "aggregator": "mean"}``),
  validated against the strategy/aggregator/topology registries.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.backends import backend_spec_problems
from repro.comm.network_model import NETWORKS, NetworkModel
from repro.compress.registry import COMPRESSORS
from repro.core.callbacks import CALLBACKS, Callback
from repro.core.trainer import TrainerConfig
from repro.faults import FaultSpec
from repro.federated import ClientSpec
from repro.models.registry import MODELS, list_models, list_presets
from repro.registry import RegistryKeyError, unknown_field_problems
from repro.sim.compute import compute_model_problems
from repro.sync import SYNC_STRATEGIES, SyncSpec
from repro.utils.serialization import to_jsonable


class SpecError(ValueError):
    """An invalid or unparseable experiment spec, with actionable messages."""

    def __init__(self, problems: Union[str, List[str]]):
        self.problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("invalid experiment spec:\n" +
                         "\n".join(f"  - {p}" for p in self.problems))


@dataclass
class ExperimentSpec:
    """One fully-described experiment, serializable and trainer-derivable."""

    model: str = "fnn3"
    preset: str = "tiny"
    algorithm: str = "a2sgd"
    world_size: int = 4
    epochs: int = 3
    seed: int = 0
    #: Per-worker batch size; None defers to Table 1's global batch / P.
    batch_size: Optional[int] = None
    #: Override the base learning rate (None defers to Table 1).
    base_lr: Optional[float] = None
    momentum: float = 0.9
    weight_decay: float = 0.0
    #: Cap on iterations per epoch; None runs full epochs.
    max_iterations_per_epoch: Optional[int] = 20
    seq_len: int = 12
    num_train: Optional[int] = None
    num_test: Optional[int] = None
    #: Extra kwargs forwarded to the compressor constructor.
    compressor_kwargs: Dict[str, object] = field(default_factory=dict)
    #: None, a registered fabric name, a NetworkModel, or its dict form.
    network: Union[None, str, dict, NetworkModel] = None
    eval_every: int = 1
    #: Record-once/replay execution of the batched executors (see
    #: repro.tensor.tape).
    taped: bool = True
    #: Callback specs: registered names or {"name": ..., **kwargs} dicts
    #: (ready Callback instances are accepted but not JSON-serializable).
    callbacks: List[object] = field(default_factory=list)
    #: Synchronization section: None (allreduce + mean, the paper's
    #: Algorithm 1), a SyncSpec, or its dict form.
    sync: Union[None, dict, SyncSpec] = None
    #: Compute-time model for the simulated clock: None, a registered name
    #: ("constant", "lognormal", "straggler", "intermittent_dropout") or a
    #: {"name": ..., **kwargs} dict.  Async sync strategies default to
    #: "constant" when None.
    compute_model: Union[None, str, dict] = None
    #: Seed for the per-rank compute-time draws (independent of ``seed``).
    clock_seed: int = 0
    #: Fault-injection section: None or ``{"model": "none"}`` (the default —
    #: bit-identical to the pre-fault code paths), a registered fault-model
    #: name ("crash_stop", "transient_blackout", "message_loss",
    #: "slow_node"), a :class:`repro.faults.FaultSpec`, or its dict form
    #: (``{"model": ..., "model_kwargs": {...}, "barrier_timeout_s": ...}``).
    faults: Union[None, str, dict, "FaultSpec"] = None
    #: Seed for the fault timeline draws (independent of ``seed`` and
    #: ``clock_seed`` so injected faults never perturb training numerics
    #: or healthy-run timing).
    fault_seed: int = 0
    #: Execution backend: ``"inprocess"`` (the default single-process
    #: executors) or ``"multiprocessing"`` (worker processes over
    #: shared-memory flat buffers, bit-identical numerics).  Validated
    #: against the ``EXECUTION_BACKENDS`` registry.
    backend: str = "inprocess"
    #: Extra kwargs forwarded to the backend constructor, e.g.
    #: ``{"num_workers": 4}``.
    backend_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Client-population section: None (every rank is a client — the
    #: pre-federated behaviour), an int (``num_clients`` with full
    #: participation), a :class:`repro.federated.ClientSpec`, or its dict
    #: form (``{"num_clients": 64, "cohort_size": 8,
    #: "sampler": "uniform_without_replacement", "data_skew": "dirichlet",
    #: "data_skew_kwargs": {"alpha": 0.3}}``).
    clients: Union[None, int, dict, "ClientSpec"] = None

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    def resolved_network(self) -> Optional[NetworkModel]:
        """The spec's network as a :class:`NetworkModel` (or None)."""
        if self.network is None or isinstance(self.network, NetworkModel):
            return self.network
        if isinstance(self.network, str):
            return NETWORKS.create(self.network)
        if isinstance(self.network, dict):
            return NetworkModel(**self.network)
        raise SpecError(f"network must be None, a name, a dict or a NetworkModel; "
                        f"got {self.network!r}")

    def resolved_sync(self) -> SyncSpec:
        """The spec's sync section as a :class:`SyncSpec` (defaults when None)."""
        try:
            return SyncSpec.resolve(self.sync)
        except ValueError as error:
            raise SpecError(str(error).splitlines()) from None

    def to_trainer_config(self) -> TrainerConfig:
        """Derive the trainer's config from this spec.

        Every ``TrainerConfig`` field is copied from the identically-named
        spec field — no hand-maintained mirror — with the declarative forms
        (network name/dict) resolved and mutable values deep-copied so one
        trainer run cannot leak state into the spec or a sibling run.
        """
        kwargs = {f.name: getattr(self, f.name)
                  for f in dataclasses.fields(TrainerConfig)}
        kwargs["compressor_kwargs"] = copy.deepcopy(dict(self.compressor_kwargs))
        kwargs["backend_kwargs"] = copy.deepcopy(dict(self.backend_kwargs))
        kwargs["network"] = self.resolved_network()
        # Deep-copied so one trainer run cannot leak sync state into the spec
        # (or a sibling run produced by replace()).
        kwargs["sync"] = copy.deepcopy(self.resolved_sync())
        kwargs["compute_model"] = copy.deepcopy(self.compute_model)
        kwargs["faults"] = copy.deepcopy(self.resolved_faults())
        kwargs["clients"] = copy.deepcopy(self.resolved_clients())
        return TrainerConfig(**kwargs)

    def resolved_faults(self) -> FaultSpec:
        """The spec's faults section as a :class:`FaultSpec` (defaults when
        None)."""
        try:
            return FaultSpec.resolve(self.faults)
        except ValueError as error:
            raise SpecError(str(error).splitlines()) from None

    def resolved_clients(self) -> ClientSpec:
        """The spec's clients section as a :class:`ClientSpec` (defaults
        when None)."""
        try:
            return ClientSpec.resolve(self.clients)
        except ValueError as error:
            raise SpecError(str(error).splitlines()) from None

    def replace(self, **overrides) -> "ExperimentSpec":
        """A copy with ``overrides`` applied and mutable fields deep-copied.

        Unlike a shallow ``dataclasses.replace``, sibling specs produced by
        ``replace`` never share ``compressor_kwargs`` / ``callbacks`` /
        ``network`` objects, so sweeps cannot leak state across cells.
        """
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise SpecError([_unknown_field_message(name, self) for name in sorted(unknown)])
        fresh = copy.deepcopy(self)
        for name, value in overrides.items():
            setattr(fresh, name, value)
        return fresh

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict form (raises on non-serializable callback objects)."""
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        try:
            return to_jsonable(payload)
        except TypeError as error:
            raise SpecError(f"spec is not serializable: {error}; use registered "
                            f"callback names or {{'name': ...}} dicts instead of "
                            f"instances") from None

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentSpec":
        """Build a spec from a dict, rejecting unknown keys with suggestions."""
        if not isinstance(payload, dict):
            raise SpecError(f"expected a JSON object, got {type(payload).__name__}")
        # Legacy-key reader: spec files written before the option was removed
        # carry ``"fused_pipeline": true`` (then the default); read past it.
        payload = dict(payload)
        if payload.pop("fused_pipeline", True) is not True:
            raise SpecError(
                "`fused_pipeline: false` was removed: the per-rank loops are "
                "a test oracle now (tests/reference_trainer.py); delete the key")
        problems = unknown_field_problems(payload,
                                          [f.name for f in dataclasses.fields(cls)])
        if problems:
            raise SpecError(problems)
        return cls(**payload)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a JSON file."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise SpecError(f"spec file {str(path)!r} does not exist") from None
        except json.JSONDecodeError as error:
            raise SpecError(f"spec file {str(path)!r} is not valid JSON: {error}") from None
        return cls.from_dict(payload)

    def to_file(self, path: Union[str, Path], indent: int = 2) -> Path:
        """Write the spec as JSON; round-trips through :meth:`from_file`."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n")
        return path

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "ExperimentSpec":
        """Check every field, raising :class:`SpecError` listing all problems."""
        problems: List[str] = []

        # Same normalized lookup the runtime uses, so validate() never rejects
        # a spec that get_model_spec() would accept (e.g. "lstm-ptb").
        if f"{self.model}/{self.preset}" not in MODELS:
            problems.append(f"unknown model/preset {self.model!r}/{self.preset!r}; "
                            f"models: {list_models()}, presets for a model via "
                            f"list_presets(); e.g. fnn3 has {list_presets('fnn3')}")
        try:
            COMPRESSORS.canonical(str(self.algorithm))
        except RegistryKeyError as error:
            problems.append(str(error))

        for name, minimum in (("world_size", 1), ("epochs", 1), ("eval_every", 1),
                              ("seq_len", 2)):
            value = getattr(self, name)
            if not _is_int(value) or value < minimum:
                problems.append(f"{name} must be an integer >= {minimum}, got {value!r}")
        for name in ("batch_size", "max_iterations_per_epoch", "num_train", "num_test"):
            value = getattr(self, name)
            if value is not None and (not _is_int(value) or value < 1):
                problems.append(f"{name} must be None or an integer >= 1, got {value!r}")
        if not _is_int(self.seed):
            problems.append(f"seed must be an integer, got {self.seed!r}")

        if not isinstance(self.compressor_kwargs, dict):
            problems.append(f"compressor_kwargs must be a dict, "
                            f"got {type(self.compressor_kwargs).__name__}")
        if not isinstance(self.taped, bool):
            problems.append(f"taped must be true/false, got {self.taped!r}")

        if isinstance(self.network, str) and self.network not in NETWORKS:
            problems.append(f"unknown network {self.network!r}; "
                            f"available: {NETWORKS.list()} (or a latency/bandwidth dict)")
        elif isinstance(self.network, dict):
            missing = {"latency_s", "bandwidth_Bps"} - set(self.network)
            extra = set(self.network) - {"latency_s", "bandwidth_Bps", "name"}
            if missing or extra:
                detail = (f"missing {sorted(missing)}" if missing else "") + \
                         (" and " if missing and extra else "") + \
                         (f"has unexpected keys {sorted(extra)}" if extra else "")
                problems.append(f"network dict {detail}; expected "
                                f"{{'latency_s': <s>, 'bandwidth_Bps': <B/s>, 'name': ...}}")
        elif self.network is not None and not isinstance(self.network, NetworkModel):
            problems.append(f"network must be None, a name, a dict or a NetworkModel, "
                            f"got {type(self.network).__name__}")

        if isinstance(self.sync, (dict, SyncSpec)) or self.sync is None:
            try:
                sync = SyncSpec.resolve(self.sync)
            except ValueError as error:
                problems.extend(str(error).splitlines())
            else:
                world_size = self.world_size if isinstance(self.world_size, int) else None
                problems.extend(sync.problems(world_size=world_size,
                                              algorithm=str(self.algorithm)))
        else:
            problems.append(f"sync must be None, a dict or a SyncSpec, "
                            f"got {type(self.sync).__name__}")

        problems.extend(compute_model_problems(self.compute_model))
        if not _is_int(self.clock_seed):
            problems.append(f"clock_seed must be an integer, got {self.clock_seed!r}")

        if isinstance(self.faults, (str, dict, FaultSpec)) or self.faults is None:
            try:
                faults = FaultSpec.resolve(self.faults)
            except ValueError as error:
                problems.extend(str(error).splitlines())
            else:
                world_size = self.world_size if isinstance(self.world_size, int) else None
                problems.extend(faults.problems(world_size=world_size))
        else:
            problems.append(f"faults must be None, a model name, a dict or a "
                            f"FaultSpec, got {type(self.faults).__name__}")
        if not _is_int(self.fault_seed):
            problems.append(f"fault_seed must be an integer, got {self.fault_seed!r}")

        # Backend name, kwargs and feature compatibility — the exact pinned
        # messages the trainer raises at bind time, so a bad combination
        # fails identically from `repro validate` and `repro run`.
        task = MODELS.get(f"{self.model}/{self.preset}").task \
            if f"{self.model}/{self.preset}" in MODELS else None
        sync_strategy, is_async = None, False
        try:
            sync_strategy = SyncSpec.resolve(self.sync).strategy
            if sync_strategy in SYNC_STRATEGIES:
                is_async = bool(getattr(SYNC_STRATEGIES.get(sync_strategy),
                                        "is_async", False))
        except (TypeError, ValueError):
            pass                       # already reported by the sync block
        try:
            faults_active = FaultSpec.resolve(self.faults).active
        except (TypeError, ValueError):
            faults_active = False      # already reported by the faults block
        problems.extend(backend_spec_problems(
            self.backend, self.backend_kwargs,
            world_size=self.world_size if isinstance(self.world_size, int) else None,
            task=task, sync_strategy=sync_strategy, is_async=is_async,
            faults_active=faults_active))

        # Client-population section — the same pinned messages the trainer
        # raises at construction, so `repro validate` and `repro run` fail
        # identically on a bad combination.
        if isinstance(self.clients, (int, dict, ClientSpec)) \
                and not isinstance(self.clients, bool) or self.clients is None:
            try:
                clients = ClientSpec.resolve(self.clients)
            except ValueError as error:
                problems.extend(str(error).splitlines())
            else:
                try:
                    sync_period = SyncSpec.resolve(self.sync).period
                except (TypeError, ValueError):
                    sync_period = None  # already reported by the sync block
                problems.extend(clients.problems(
                    world_size=self.world_size
                    if isinstance(self.world_size, int) else None,
                    task=task, sync_strategy=sync_strategy,
                    sync_period=sync_period, faults_active=faults_active))
        else:
            problems.append(f"clients must be None, an int, a dict or a "
                            f"ClientSpec, got {type(self.clients).__name__}")

        for entry in self.callbacks:
            if isinstance(entry, Callback):
                continue
            name = entry.get("name") if isinstance(entry, dict) else entry
            if not isinstance(name, str) or name not in CALLBACKS:
                problems.append(f"unknown callback {entry!r}; registered callbacks: "
                                f"{CALLBACKS.list()}")
                continue
            # Constructibility: a name whose class needs kwargs (e.g.
            # "checkpoint" without a path) must fail here, not mid-run.
            kwargs = {k: v for k, v in entry.items() if k != "name"} \
                if isinstance(entry, dict) else {}
            try:
                CALLBACKS.create(name, **kwargs)
            except Exception as error:
                problems.append(f"callback {entry!r} cannot be constructed: {error}")

        if problems:
            raise SpecError(problems)
        return self

    def describe(self) -> str:
        """One human-readable line per field (used by ``repro validate``)."""
        lines = [f"{f.name:26s} = {getattr(self, f.name)!r}"
                 for f in dataclasses.fields(self)]
        return "\n".join(lines)


def _is_int(value: object) -> bool:
    """A real integer: ``bool`` is an ``int`` subclass and must not pass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _unknown_field_message(name: str, spec: ExperimentSpec) -> str:
    return unknown_field_problems([name],
                                  [f.name for f in dataclasses.fields(spec)])[0]
