"""Declarative client-population configuration: the spec's ``clients`` section.

A :class:`ClientSpec` describes a logical federated population layered over
the physical world: how many clients exist (``num_clients``), how many are
materialized per round (``cohort_size``, always the world size — one cohort
client per replica slot), which sampler picks the cohort, and how the
training set is partitioned across clients::

    {"clients": {"num_clients": 64, "cohort_size": 8, "sampler_seed": 7,
                 "sampler": "uniform_without_replacement",
                 "data_skew": "dirichlet", "data_skew_kwargs": {"alpha": 0.3}}}

``ClientSpec()`` (``num_clients`` unset) describes no population at all:
the trainer's default one-client-per-rank data path runs and every code
path is bit-identical to the pre-federated trainer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.data.partition import PARTITION_POLICIES, partition_problems
from repro.federated.sampler import CLIENT_SAMPLERS
from repro.registry import RegistryKeyError, unknown_field_problems

if TYPE_CHECKING:
    from repro.core.features import RunFeatures


@dataclass
class ClientSpec:
    """One fully-described client population (JSON round-trippable)."""

    #: Logical population size N (None disables the federated layer).
    num_clients: Optional[int] = None
    #: Cohort size K materialized each round; None means "the world size".
    #: Each cohort client occupies exactly one replica slot, so an explicit
    #: value must equal world_size.
    cohort_size: Optional[int] = None
    #: Registered cohort sampler: full, uniform_without_replacement.
    sampler: str = "uniform_without_replacement"
    #: Seed of the per-round sampler stream (``--seed``-style sibling knob,
    #: kept separate so the cohort sequence survives model-seed sweeps).
    sampler_seed: int = 0
    #: Per-client partition policy: iid, dirichlet, shards.
    data_skew: str = "iid"
    #: Extra kwargs for the partition policy (e.g. alpha for dirichlet).
    data_skew_kwargs: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction / serialization
    # ------------------------------------------------------------------ #
    @classmethod
    def resolve(cls, value: Union[None, int, Dict[str, object], "ClientSpec"]
                ) -> "ClientSpec":
        """Normalize the forms a spec/config may carry: None, N, dict,
        ClientSpec."""
        if value is None:
            return cls()
        if isinstance(value, ClientSpec):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return cls(num_clients=value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise ValueError(f"clients must be None, a population size, a dict "
                         f"or a ClientSpec; got {value!r}")

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ClientSpec":
        """Build from a dict, rejecting unknown keys with suggestions."""
        if not isinstance(payload, dict):
            raise ValueError(f"clients must be a JSON object, "
                             f"got {type(payload).__name__}")
        problems = unknown_field_problems(
            payload, [f.name for f in dataclasses.fields(cls)],
            label="clients field")
        if problems:
            raise ValueError("\n".join(problems))
        return cls(**payload)

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def merged_with(self, overrides: Dict[str, object]) -> Dict[str, object]:
        """Overlay partial field overrides, dict form, for CLI/API merging.

        Switching the partition policy resets ``data_skew_kwargs`` — a
        Dirichlet ``alpha`` means nothing to the ``shards`` policy.  Names
        are compared case/punctuation-insensitively so aliases never read
        as a switch.
        """
        merged = self.to_dict()

        def canonical(name: object) -> str:
            return str(name).strip().lower().replace("-", "_")

        if "data_skew" in overrides \
                and canonical(overrides["data_skew"]) != canonical(merged["data_skew"]):
            merged["data_skew_kwargs"] = {}
        merged.update(overrides)
        return merged

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """Whether a client population is configured at all."""
        return self.num_clients is not None

    def _sampler_canonical(self) -> Optional[str]:
        try:
            return CLIENT_SAMPLERS.canonical(str(self.sampler))
        except RegistryKeyError:
            return None

    def problems(self, features: "RunFeatures") -> List[str]:
        """Every problem with this clients section, as actionable messages.

        ``features`` (the run's :class:`~repro.core.features.RunFeatures`)
        supplies the world size, task, sync strategy and period, and whether
        faults are injected.
        """
        world_size, task = features.world_size, features.task
        if not self.enabled:
            problems: List[str] = []
            if self.cohort_size is not None:
                problems.append("clients: cohort_size given but num_clients "
                                "is unset; set num_clients to enable the "
                                "federated layer")
            return problems

        problems = []
        if not isinstance(self.num_clients, int) \
                or isinstance(self.num_clients, bool) or self.num_clients < 1:
            problems.append(f"clients: num_clients must be an integer >= 1, "
                            f"got {self.num_clients!r}")
            return problems
        if self.cohort_size is not None and (
                not isinstance(self.cohort_size, int)
                or isinstance(self.cohort_size, bool) or self.cohort_size < 1):
            problems.append(f"clients: cohort_size must be an integer >= 1, "
                            f"got {self.cohort_size!r}")
            return problems

        cohort = self.cohort_size
        if cohort is None and world_size is not None:
            cohort = int(world_size)
        if cohort is not None and cohort > self.num_clients:
            problems.append(
                f"clients: cohort_size {cohort} exceeds num_clients "
                f"{self.num_clients}; the sampled cohort cannot be larger "
                f"than the client population")
        if self.cohort_size is not None and world_size is not None \
                and self.cohort_size != int(world_size):
            problems.append(
                f"clients: cohort_size {self.cohort_size} must equal "
                f"world_size {world_size}; each sampled client occupies one "
                f"materialized replica slot")

        sampler = self._sampler_canonical()
        if sampler is None:
            try:
                CLIENT_SAMPLERS.canonical(str(self.sampler))
            except RegistryKeyError as error:
                problems.append(f"clients: {error}")
        else:
            sampler_cls = CLIENT_SAMPLERS.get(sampler)
            if sampler_cls.full_participation and cohort is not None \
                    and cohort != self.num_clients:
                problems.append(
                    f"clients: the 'full' sampler materializes every client "
                    f"each round and requires cohort_size == num_clients "
                    f"(got K={cohort}, N={self.num_clients}); use "
                    f"'uniform_without_replacement' to sample cohorts")
            if not sampler_cls.full_participation \
                    and features.sync is not None and features.period < 2:
                problems.append(
                    f"clients: sampler {sampler!r} resamples the cohort "
                    f"at each parameter-averaging point and requires "
                    f"sync period >= 2 (got {features.period}); use the "
                    f"'full' sampler for per-iteration exchange")

        if not isinstance(self.sampler_seed, int) \
                or isinstance(self.sampler_seed, bool):
            problems.append(f"clients: sampler_seed must be an integer, "
                            f"got {self.sampler_seed!r}")
        if not isinstance(self.data_skew_kwargs, dict):
            problems.append(f"clients: data_skew_kwargs must be a dict, got "
                            f"{type(self.data_skew_kwargs).__name__}")
        else:
            problems.extend(f"clients: {p}" for p in partition_problems(
                str(self.data_skew), dict(self.data_skew_kwargs)))

        if task is not None and task != "classification":
            problems.append(f"clients: federated client populations support "
                            f"classification tasks only (got task {task!r})")
        if features.sync is not None and (features.strategy is None
                                          or features.strategy.name != "fedavg"):
            problems.append(
                f"clients: a client population requires sync strategy "
                f"'fedavg' (got {features.sync.strategy!r})")
        if features.faults_active:
            problems.append("clients: fault injection is not supported with "
                            "a client population; cohort sampling already "
                            "models partial participation")
        return problems

    def describe(self) -> str:
        """One-line human-readable summary (used by the CLI)."""
        if not self.enabled:
            return "disabled"
        parts = [f"num_clients={self.num_clients}"]
        parts.append(f"cohort_size={self.cohort_size if self.cohort_size is not None else 'world_size'}")
        parts.append(f"sampler={self.sampler}")
        parts.append(f"sampler_seed={self.sampler_seed}")
        parts.append(f"data_skew={self.data_skew}")
        if self.data_skew_kwargs:
            parts.append(f"data_skew_kwargs={dict(self.data_skew_kwargs)}")
        return " ".join(parts)
