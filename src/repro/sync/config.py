"""Declarative synchronization configuration: the spec's ``sync`` section.

A :class:`SyncSpec` is the serializable description of one synchronization
setup — strategy, aggregator, gossip topology, local-SGD period and the
Byzantine corruption scenario — carried by
:class:`~repro.core.spec.ExperimentSpec` under the ``sync`` key and by
:class:`~repro.core.trainer.TrainerConfig` as the resolved dataclass::

    {"sync": {"strategy": "gossip", "topology": "ring",
              "aggregator": "trimmed_mean",
              "aggregator_kwargs": {"trim_ratio": 0.25}}}

``SyncSpec()`` (all defaults) describes the seed trainer exactly:
synchronous allreduce with mean aggregation and no corruption.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.comm.inprocess import InProcessWorld
from repro.comm.topology import TOPOLOGIES
from repro.compress.base import Compressor
from repro.compress.registry import COMPRESSORS
from repro.registry import RegistryKeyError, unknown_field_problems
from repro.sync.aggregators import AGGREGATORS
from repro.sync.base import CORRUPTION_KINDS, SYNC_STRATEGIES, GradientCorruption, SyncStrategy
from repro.utils.rng import SeedSequenceFactory

if TYPE_CHECKING:
    from repro.core.features import RunFeatures


@dataclass
class SyncSpec:
    """One fully-described synchronization setup (JSON round-trippable)."""

    #: Registered strategy name: allreduce, local_sgd, gossip, async_ps, easgd.
    strategy: str = "allreduce"
    #: Extra kwargs for the strategy constructor (e.g. staleness_bound for
    #: async_ps, moving_rate for easgd).
    strategy_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Registered aggregator name: mean, trimmed_mean, coordinate_median,
    #: geometric_median.
    aggregator: str = "mean"
    #: Extra kwargs for the aggregator constructor (e.g. trim_ratio).
    aggregator_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Local-SGD synchronization period H (1 = synchronize every iteration).
    period: int = 1
    #: Gossip communication graph: ring, star, fully_connected.
    topology: str = "ring"
    #: Compressor for the parameter-phase payloads of local_sgd (H > 1) /
    #: gossip: any registered compressor name, applied to the per-rank
    #: parameter *delta* against the last synchronized reference.  "none"
    #: keeps the dense float32 exchange, bit for bit.
    parameter_compression: str = "none"
    #: Extra kwargs for the parameter-phase compressor constructor
    #: (e.g. {"ratio": 0.01} for topk).
    parameter_compression_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Ranks whose local gradients are Byzantine-corrupted every iteration.
    corrupt_ranks: List[int] = field(default_factory=list)
    #: Corruption kind: "sign_flip" (g -> -g) or "scale" (g -> scale * g).
    corruption: str = "sign_flip"
    #: Multiplier used by the "scale" corruption kind.
    corruption_scale: float = 10.0

    # ------------------------------------------------------------------ #
    # construction / serialization
    # ------------------------------------------------------------------ #
    @classmethod
    def resolve(cls, value: Union[None, Dict[str, object], "SyncSpec"]) -> "SyncSpec":
        """Normalize the forms a spec/config may carry: None, dict, SyncSpec."""
        if value is None:
            return cls()
        if isinstance(value, SyncSpec):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise ValueError(f"sync must be None, a dict or a SyncSpec; got {value!r}")

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SyncSpec":
        """Build from a dict, rejecting unknown keys with suggestions."""
        if not isinstance(payload, dict):
            raise ValueError(f"sync must be a JSON object, got {type(payload).__name__}")
        problems = unknown_field_problems(
            payload, [f.name for f in dataclasses.fields(cls)], label="sync field")
        if problems:
            raise ValueError("\n".join(problems))
        return cls(**payload)

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def merged_with(self, overrides: Dict[str, object]) -> Dict[str, object]:
        """Overlay partial field overrides, dict form, for CLI/API merging.

        Switching a component resets the knobs owned by the old one:
        changing ``strategy`` drops ``period``/``topology``/
        ``parameter_compression`` (+ kwargs) — a gossip config's topology
        or delta compressor must not invalidate a switch to allreduce —
        and changing ``aggregator`` drops ``aggregator_kwargs`` (trimmed_mean's
        ``trim_ratio`` would make ``mean`` unconstructible).  Names are
        compared canonically so registered aliases ("localsgd", "median")
        never read as a switch.  Overrides themselves always win.
        """
        merged = self.to_dict()
        defaults = SyncSpec()

        def canonical(registry, name: object) -> str:
            try:
                return registry.canonical(str(name))
            except KeyError:
                return str(name)

        if "strategy" in overrides \
                and canonical(SYNC_STRATEGIES, overrides["strategy"]) \
                != canonical(SYNC_STRATEGIES, merged["strategy"]):
            merged["strategy_kwargs"] = dict(defaults.strategy_kwargs)
            merged["period"] = defaults.period
            merged["topology"] = defaults.topology
            # Parameter compression belongs to the parameter-phase strategy
            # being switched away from; a leftover compressor would make the
            # new strategy unconstructible (or silently misconfigured).
            merged["parameter_compression"] = defaults.parameter_compression
            merged["parameter_compression_kwargs"] = \
                dict(defaults.parameter_compression_kwargs)
        if "aggregator" in overrides \
                and canonical(AGGREGATORS, overrides["aggregator"]) \
                != canonical(AGGREGATORS, merged["aggregator"]):
            merged["aggregator_kwargs"] = dict(defaults.aggregator_kwargs)
        merged.update(overrides)
        return merged

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def problems(self, features: "RunFeatures") -> List[str]:
        """Every problem with this sync section, as actionable messages.

        ``features`` is the run's :class:`~repro.core.features.RunFeatures`
        record: it carries the registered classes this section names, the
        world size (corrupt-rank range) and the gradient compressor the
        strategy's own cross-feature rules read.
        """
        problems: List[str] = []
        for registry, name in ((SYNC_STRATEGIES, self.strategy),
                               (AGGREGATORS, self.aggregator),
                               (TOPOLOGIES, self.topology)):
            try:
                registry.canonical(str(name))
            except RegistryKeyError as error:
                problems.append(str(error))

        if not isinstance(self.period, int) or isinstance(self.period, bool) \
                or self.period < 1:
            problems.append(f"sync period must be an integer >= 1, got {self.period!r}")

        # Strategy-specific fields set on a strategy that ignores them are a
        # config mistake (e.g. expecting --sync-period to affect allreduce),
        # not a silent no-op.  The strategy classes carry the capability
        # flags (uses_period / needs_topology), so registered third-party
        # strategies participate without name lists here.
        strategy_cls = features.strategy
        if strategy_cls is not None:
            if not strategy_cls.uses_period and self.period != 1:
                problems.append(f"period={self.period!r} is only used by "
                                f"period-based strategies (local_sgd); strategy "
                                f"{self.strategy!r} synchronizes on its own schedule")
            if not strategy_cls.needs_topology \
                    and not strategy_cls.optional_topology \
                    and self.topology != "ring":
                problems.append(f"topology={self.topology!r} is only used by "
                                f"graph-based strategies (gossip); strategy "
                                f"{self.strategy!r} does not exchange over a graph")
        for registry, name, field_name in (
                (SYNC_STRATEGIES, self.strategy, "strategy_kwargs"),
                (AGGREGATORS, self.aggregator, "aggregator_kwargs")):
            kwargs = getattr(self, field_name)
            if not isinstance(kwargs, dict):
                problems.append(f"{field_name} must be a dict, "
                                f"got {type(kwargs).__name__}")
            elif name in registry:
                problems.extend(registry.construction_problems(name, kwargs))

        problems.extend(self._parameter_compression_problems())

        if self.corruption not in CORRUPTION_KINDS:
            problems.append(f"unknown corruption {self.corruption!r}; "
                            f"expected one of {list(CORRUPTION_KINDS)}")
        if not isinstance(self.corruption_scale, (int, float)) \
                or isinstance(self.corruption_scale, bool):
            problems.append(f"corruption_scale must be a number, "
                            f"got {self.corruption_scale!r}")
        if not isinstance(self.corrupt_ranks, (list, tuple)) \
                or any(not isinstance(r, int) or isinstance(r, bool) or r < 0
                       for r in self.corrupt_ranks):
            problems.append(f"corrupt_ranks must be a list of non-negative rank "
                            f"indices, got {self.corrupt_ranks!r}")
        elif features.world_size is not None:
            out_of_range = sorted(r for r in self.corrupt_ranks
                                  if r >= features.world_size)
            if out_of_range:
                problems.append(f"corrupt_ranks {out_of_range} out of range for "
                                f"world_size {features.world_size}")

        # Cross-feature rules (aggregator x compressor, parameter compression
        # on a gradient-phase strategy, ...) are stated once, on the strategy
        # class that owns them; bind() raises the same strings.
        if strategy_cls is not None:
            problems.extend(strategy_cls.compatibility_problems(features))
        return problems

    def _parameter_compression_problems(self) -> List[str]:
        """Validation of the ``parameter_compression`` (+ kwargs) fields."""
        kwargs = self.parameter_compression_kwargs
        if not isinstance(kwargs, dict):
            return [f"parameter_compression_kwargs must be a dict, "
                    f"got {type(kwargs).__name__}"]
        if not self.compresses_parameters:
            return [f"parameter_compression_kwargs {kwargs!r} given but "
                    f"parameter_compression is {self.parameter_compression!r}"
                    ] if kwargs else []
        try:
            COMPRESSORS.canonical(str(self.parameter_compression))
        except RegistryKeyError as error:
            return [f"parameter_compression: {error}"]
        return COMPRESSORS.construction_problems(
            self.parameter_compression, kwargs, kind="parameter compressor")

    def notes(self) -> List[str]:
        """Advisory notes: configurations that run but deserve a warning.

        Unlike :meth:`problems` these never fail validation — a
        non-contractive parameter compressor still trains (the end-to-end
        tests exercise QSGD's defaults) but its error-feedback residual has
        no drain guarantee, so the mistake is surfaced rather than enforced.
        ``repro validate`` prints these and :meth:`build` raises them as
        ``RuntimeWarning``.
        """
        notes: List[str] = []
        if self.compresses_parameters \
                and isinstance(self.parameter_compression_kwargs, dict):
            try:
                compressor = COMPRESSORS.create(
                    self.parameter_compression,
                    **self.parameter_compression_kwargs)
            except Exception:
                return notes                   # reported by problems()
            issue = compressor.contraction_problem()
            if issue:
                notes.append(f"parameter_compression: {issue}")
        return notes

    @property
    def compresses_parameters(self) -> bool:
        """Whether a parameter-phase compressor is configured (not "none")."""
        name = str(self.parameter_compression).strip().lower()
        return name not in ("none", "")

    def _strategy_class(self) -> Optional[type]:
        """The registered strategy class, or None when unregistered."""
        try:
            return SYNC_STRATEGIES.get(str(self.strategy))
        except RegistryKeyError:
            return None

    # ------------------------------------------------------------------ #
    # strategy construction
    # ------------------------------------------------------------------ #
    def build(self, world: InProcessWorld, compressors: Sequence[Compressor],
              seeds: SeedSequenceFactory) -> SyncStrategy:
        """Instantiate and bind the described strategy to a world.

        ``seeds`` is the run's seed tree: every parameter-codec compressor
        with a generator rounds with its rank's own stream,
        ``seeds.for_worker(rank, "param_codec")``.
        """
        aggregator = AGGREGATORS.create(self.aggregator, **dict(self.aggregator_kwargs))
        strategy: SyncStrategy = SYNC_STRATEGIES.create(
            self.strategy, **dict(self.strategy_kwargs))
        topology = TOPOLOGIES.get(self.topology)
        topology = topology() if strategy.binds(topology) else None
        corruption = None
        if self.corrupt_ranks:
            corruption = GradientCorruption(self.corrupt_ranks, kind=self.corruption,
                                            scale=self.corruption_scale)
        parameter_compressors = None
        if self.compresses_parameters:
            # One instance per rank: the delta codec's error-feedback
            # residuals are per worker, exactly like the gradient phase's.
            parameter_compressors = [
                COMPRESSORS.create(self.parameter_compression,
                                   **dict(self.parameter_compression_kwargs))
                for _ in range(world.world_size)]
            for rank, compressor in enumerate(parameter_compressors):
                if getattr(compressor, "rng", None) is not None:
                    compressor.rng = seeds.for_worker(rank, "param_codec")
            issue = parameter_compressors[0].contraction_problem()
            if issue:
                warnings.warn(issue, RuntimeWarning, stacklevel=2)
        return strategy.bind(world, compressors, aggregator, topology=topology,
                             period=self.period, corruption=corruption,
                             parameter_compressors=parameter_compressors)

    def describe(self) -> str:
        """One-line human-readable summary (used by the CLI)."""
        parts = [f"strategy={self.strategy}", f"aggregator={self.aggregator}"]
        if self.strategy_kwargs:
            parts.append(f"strategy_kwargs={dict(self.strategy_kwargs)}")
        strategy_cls = self._strategy_class()
        if strategy_cls is not None and strategy_cls.uses_period:
            parts.append(f"period={self.period}")
        if strategy_cls is not None and (
                strategy_cls.needs_topology
                or (strategy_cls.optional_topology and self.topology != "ring")):
            parts.append(f"topology={self.topology}")
        if self.compresses_parameters:
            parts.append(f"param_compression={self.parameter_compression}")
        if self.corrupt_ranks:
            parts.append(f"corrupt_ranks={list(self.corrupt_ranks)} "
                         f"({self.corruption})")
        return " ".join(parts)
