"""Declarative experiment specification.

An :class:`ExperimentSpec` is the single serializable description of one
cell of the paper's evaluation grid (model × compressor × world-size ×
network).  It *is* a :class:`~repro.core.trainer.TrainerConfig` — a subclass
that declares no option of its own beyond ``callbacks`` — so adding a trainer
knob automatically makes it spec- and JSON-addressable.

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

from repro.comm.network_model import NetworkModel, resolve_network
from repro.core.callbacks import callback_problems
from repro.core.features import RunFeatures
from repro.core.trainer import TrainerConfig
from repro.faults import FaultSpec
from repro.federated import ClientSpec
from repro.registry import unknown_field_problems
from repro.sync import SyncSpec
from repro.utils.serialization import to_jsonable


#: Retired spec keys.  Spec files written before an option was removed carry
#: ``"<key>": true`` (its default then), which is read past; any other value
#: asked for behaviour that no longer exists and raises the key's message.
_RETIRED_KEYS: Dict[str, str] = {
    "fused_pipeline": "`fused_pipeline: false` was removed: the per-rank loops "
                      "are a test oracle now (tests/reference_trainer.py); "
                      "delete the key",
    "taped": "`taped: false` was removed: the batched executors always record "
             "and replay, running eagerly only where a graph cannot be "
             "replayed (tests/eager_executors.py is the oracle); delete the key",
}


class SpecError(ValueError):
    """An invalid or unparseable experiment spec, with actionable messages."""

    def __init__(self, problems: Union[str, List[str]]):
        self.problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("invalid experiment spec:\n" +
                         "\n".join(f"  - {p}" for p in self.problems))


@dataclass
class ExperimentSpec(TrainerConfig):
    """One fully-described experiment, serializable and trainer-derivable.

    Every option is a :class:`~repro.core.trainer.TrainerConfig` field,
    declared once there (the declarative forms — a network name or dict, a
    sync / faults / clients dict — are accepted by the trainer too); a spec
    caps epochs at 20 iterations unless told otherwise and adds the
    ``callbacks`` it builds the trainer with.
    """

    #: Cap on iterations per epoch; None runs full epochs.
    max_iterations_per_epoch: Optional[int] = 20
    #: Callback specs: registered names or {"name": ..., **kwargs} dicts
    #: (ready Callback instances are accepted but not JSON-serializable).
    callbacks: List[object] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    def _resolved(self, resolve, field_name: str):
        """One field in its built form; a malformed one is a :class:`SpecError`."""
        try:
            return resolve(getattr(self, field_name))
        except ValueError as error:
            raise SpecError(str(error).splitlines()) from None

    def resolved_network(self) -> Optional[NetworkModel]:
        """The spec's network as a :class:`NetworkModel` (or None)."""
        return self._resolved(resolve_network, "network")

    def resolved_sync(self) -> SyncSpec:
        """The spec's sync section as a :class:`SyncSpec` (defaults when None)."""
        return self._resolved(SyncSpec.resolve, "sync")

    def resolved_faults(self) -> FaultSpec:
        """The spec's faults section as a :class:`FaultSpec` (defaults when
        None)."""
        return self._resolved(FaultSpec.resolve, "faults")

    def resolved_clients(self) -> ClientSpec:
        """The spec's clients section as a :class:`ClientSpec` (defaults
        when None)."""
        return self._resolved(ClientSpec.resolve, "clients")

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
        """Build a spec from a dict, rejecting unknown keys with suggestions
        (retired keys set to ``true`` are read past; see ``_RETIRED_KEYS``)."""
        if not isinstance(payload, dict):
            raise SpecError(f"expected a JSON object, got {type(payload).__name__}")
        payload = dict(payload)
        problems = [message for key, message in _RETIRED_KEYS.items()
                    if payload.pop(key, True) is not True]
        problems += unknown_field_problems(payload,
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
        """Check every field, raising :class:`SpecError` listing all problems.

        The list is :meth:`RunFeatures.problems` — the one the trainer's
        constructor raises — plus the spec-only ``callbacks`` field.
        """
        problems = RunFeatures.of(self).problems() + callback_problems(self.callbacks)
        if problems:
            raise SpecError(problems)
        return self

    def describe(self) -> str:
        """One human-readable line per field (used by ``repro validate``)."""
        lines = [f"{f.name:26s} = {getattr(self, f.name)!r}"
                 for f in dataclasses.fields(self)]
        return "\n".join(lines)


def _unknown_field_message(name: str, spec: ExperimentSpec) -> str:
    return unknown_field_problems([name],
                                  [f.name for f in dataclasses.fields(spec)])[0]
