"""Declarative fault configuration: the spec's ``faults`` section.

A :class:`FaultSpec` is the serializable description of one fault
scenario — which fault model runs, its parameters, and the barrier
timeout/retry policy lockstep worlds use to survive it — carried by
:class:`~repro.core.spec.ExperimentSpec` under the ``faults`` key (with
the seed as the sibling ``fault_seed`` field / ``--seed-faults`` flag)::

    {"faults": {"model": "transient_blackout",
                "model_kwargs": {"mean_down_s": 0.2, "mean_up_s": 0.8}},
     "fault_seed": 7}

``FaultSpec()`` (all defaults, model ``"none"``) describes a healthy
world: no injector is built and every code path is bit-identical to the
fault-free trainer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.faults.injector import FaultInjector
from repro.faults.models import FAULT_MODELS
from repro.registry import RegistryKeyError, unknown_field_problems

if TYPE_CHECKING:
    from repro.core.features import RunFeatures


@dataclass
class FaultSpec:
    """One fully-described fault scenario (JSON round-trippable)."""

    #: Registered fault model name ("none" disables injection entirely):
    #: crash_stop, transient_blackout, message_loss, slow_node.
    model: str = "none"
    #: Extra kwargs for the fault model constructor (e.g. mean_down_s for
    #: transient_blackout, p for message_loss).
    model_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Simulated seconds a lockstep barrier waits before suspecting a rank.
    barrier_timeout_s: float = 0.1
    #: Bounded retry attempts before a suspected rank is declared dead (and
    #: per lost message before a retransmission gives up backing off).
    max_retries: int = 3
    #: Base of the exponential backoff ladder (base · 2^k per attempt k).
    backoff_base_s: float = 0.05

    # ------------------------------------------------------------------ #
    # construction / serialization
    # ------------------------------------------------------------------ #
    @classmethod
    def resolve(cls, value: Union[None, str, Dict[str, object], "FaultSpec"]
                ) -> "FaultSpec":
        """Normalize the forms a spec/config may carry: None, name, dict,
        FaultSpec."""
        if value is None:
            return cls()
        if isinstance(value, FaultSpec):
            return value
        if isinstance(value, str):
            return cls(model=value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise ValueError(f"faults must be None, a model name, a dict or a "
                         f"FaultSpec; got {value!r}")

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        """Build from a dict, rejecting unknown keys with suggestions."""
        if not isinstance(payload, dict):
            raise ValueError(f"faults must be a JSON object, "
                             f"got {type(payload).__name__}")
        problems = unknown_field_problems(
            payload, [f.name for f in dataclasses.fields(cls)],
            label="faults field")
        if problems:
            raise ValueError("\n".join(problems))
        return cls(**payload)

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def merged_with(self, overrides: Dict[str, object]) -> Dict[str, object]:
        """Overlay partial field overrides, dict form, for CLI/API merging.

        Switching the fault model resets ``model_kwargs`` — a blackout
        config's ``mean_down_s`` would make ``crash_stop`` unconstructible.
        Names are compared canonically so aliases never read as a switch.
        """
        merged = self.to_dict()

        def canonical(name: object) -> str:
            try:
                return FAULT_MODELS.canonical(str(name))
            except KeyError:
                return str(name)

        if "model" in overrides \
                and canonical(overrides["model"]) != canonical(merged["model"]):
            merged["model_kwargs"] = {}
        merged.update(overrides)
        return merged

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """Whether a fault model is configured (not "none")."""
        return str(self.model).strip().lower() not in ("none", "")

    def problems(self, features: "RunFeatures") -> List[str]:
        """Every problem with this faults section, as actionable messages.

        ``features`` (the run's :class:`~repro.core.features.RunFeatures`)
        supplies the world size the fault model is bound against.
        """
        problems: List[str] = []
        model_known = False
        if self.active:
            try:
                FAULT_MODELS.canonical(str(self.model))
                model_known = True
            except RegistryKeyError as error:
                problems.append(str(error))
        if not isinstance(self.model_kwargs, dict):
            problems.append(f"model_kwargs must be a dict, "
                            f"got {type(self.model_kwargs).__name__}")
        elif not self.active and self.model_kwargs:
            problems.append(f"model_kwargs {self.model_kwargs!r} given but "
                            f"fault model is {self.model!r}")
        elif model_known:
            try:
                model = FAULT_MODELS.create(self.model, **self.model_kwargs)
                if features.world_size is not None:
                    model.bind(features.world_size, 0)
            except Exception as error:
                problems.append(f"fault model {self.model!r} cannot be "
                                f"constructed with {self.model_kwargs!r}: "
                                f"{error}")
        if not isinstance(self.barrier_timeout_s, (int, float)) \
                or isinstance(self.barrier_timeout_s, bool) \
                or self.barrier_timeout_s < 0:
            problems.append(f"barrier_timeout_s must be a number >= 0, "
                            f"got {self.barrier_timeout_s!r}")
        if not isinstance(self.max_retries, int) \
                or isinstance(self.max_retries, bool) or self.max_retries < 0:
            problems.append(f"max_retries must be an integer >= 0, "
                            f"got {self.max_retries!r}")
        if not isinstance(self.backoff_base_s, (int, float)) \
                or isinstance(self.backoff_base_s, bool) \
                or self.backoff_base_s < 0:
            problems.append(f"backoff_base_s must be a number >= 0, "
                            f"got {self.backoff_base_s!r}")
        return problems

    # ------------------------------------------------------------------ #
    # injector construction
    # ------------------------------------------------------------------ #
    def build(self, world_size: int, seed: int = 0,
              bridge_compute_stalls: bool = False) -> Optional[FaultInjector]:
        """Instantiate the injector, or None when no injection is needed.

        ``bridge_compute_stalls`` forces an injector even for model
        ``"none"`` so that ``intermittent_dropout`` compute-model stalls
        can be promoted to membership absences.
        """
        if not self.active and not bridge_compute_stalls:
            return None
        model = FAULT_MODELS.create(self.model, **dict(self.model_kwargs)) \
            if self.active else None
        return FaultInjector(
            model, world_size, seed=seed,
            barrier_timeout_s=self.barrier_timeout_s,
            max_retries=self.max_retries,
            backoff_base_s=self.backoff_base_s,
            bridge_compute_stalls=bridge_compute_stalls)

    def describe(self) -> str:
        """One-line human-readable summary (used by the CLI)."""
        if not self.active:
            return "model=none"
        parts = [f"model={self.model}"]
        if self.model_kwargs:
            parts.append(f"model_kwargs={dict(self.model_kwargs)}")
        parts.append(f"barrier_timeout_s={self.barrier_timeout_s}")
        parts.append(f"max_retries={self.max_retries}")
        parts.append(f"backoff_base_s={self.backoff_base_s}")
        return " ".join(parts)
