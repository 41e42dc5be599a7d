"""Analytic α–β network cost model.

The standard Hockney model charges ``α + m/β`` seconds to move an ``m``-byte
message over a link, where ``α`` is the per-message latency and ``β`` the link
bandwidth in bytes/second.  Collective costs follow Thakur, Rabenseifner &
Gropp (2005) — the same reference the paper cites ([46]) when discussing
Allreduce vs Allgather behaviour on its 100 Gbps fabric.

The model produces the *communication* component of iteration time for
Figures 4/5 and the scaling-efficiency column of Table 2.  Compute and
compression components are measured on the host running the benchmark, so
absolute times differ from the paper's V100 testbed while the relative
ordering (the figure "shape") is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth description of the interconnect.

    Parameters
    ----------
    latency_s:
        Per-message latency α in seconds.
    bandwidth_Bps:
        Link bandwidth β in bytes per second.
    name:
        Human-readable label used in reports.
    """

    latency_s: float
    bandwidth_Bps: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.bandwidth_Bps <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")

    def point_to_point(self, message_bytes: float) -> float:
        """Time to move one message of ``message_bytes`` over one link."""
        return self.latency_s + max(0.0, message_bytes) / self.bandwidth_Bps


def infiniband_100gbps() -> NetworkModel:
    """The paper's fabric: 100 Gbps InfiniBand (EDR), ~1.5 µs MPI latency."""
    return NetworkModel(latency_s=1.5e-6, bandwidth_Bps=100e9 / 8.0, name="100Gbps InfiniBand")


def ethernet_10gbps() -> NetworkModel:
    """A slower commodity fabric used for what-if comparisons."""
    return NetworkModel(latency_s=25e-6, bandwidth_Bps=10e9 / 8.0, name="10Gbps Ethernet")


# Named fabrics resolvable from an ExperimentSpec's ``"network": "<name>"``.
from repro.registry import Registry  # noqa: E402  (registry has no comm deps)

NETWORKS = Registry("network", expose="networks")
NETWORKS.register("infiniband_100gbps", infiniband_100gbps, aliases=("infiniband", "ib100"),
                  description="the paper's 100 Gbps InfiniBand fabric")
NETWORKS.register("ethernet_10gbps", ethernet_10gbps, aliases=("ethernet",),
                  description="10 Gbps commodity Ethernet for what-if comparisons")


def get_network(name: str) -> NetworkModel:
    """Construct a named network model, e.g. ``get_network("ethernet_10gbps")``."""
    return NETWORKS.create(name)


def resolve_network(value) -> Optional[NetworkModel]:
    """``None`` | :class:`NetworkModel` | registered name | its dict form.

    Raises ``ValueError`` with the message validation reports.
    """
    if value is None or isinstance(value, NetworkModel):
        return value
    if isinstance(value, str):
        if value not in NETWORKS:
            raise ValueError(f"unknown network {value!r}; available: "
                             f"{NETWORKS.list()} (or a latency/bandwidth dict)")
        return NETWORKS.create(value)
    if not isinstance(value, dict):
        raise ValueError(f"network must be None, a name, a dict or a NetworkModel, "
                         f"got {type(value).__name__}")
    missing = {"latency_s", "bandwidth_Bps"} - set(value)
    extra = set(value) - {"latency_s", "bandwidth_Bps", "name"}
    if missing or extra:
        detail = (f"missing {sorted(missing)}" if missing else "") + \
                 (" and " if missing and extra else "") + \
                 (f"has unexpected keys {sorted(extra)}" if extra else "")
        raise ValueError(f"network dict {detail}; expected "
                         f"{{'latency_s': <s>, 'bandwidth_Bps': <B/s>, 'name': ...}}")
    try:
        return NetworkModel(**value)
    except (TypeError, ValueError) as error:
        raise ValueError(f"network {value.get('name', 'custom')!r} cannot be "
                         f"constructed with {value!r}: {error}") from None


@dataclass(frozen=True)
class CollectiveTimeModel:
    """Closed-form collective costs on top of a :class:`NetworkModel`.

    All formulas are per-collective wall-clock estimates assuming a flat,
    full-bisection network (every rank has one NIC of the given bandwidth).
    """

    network: NetworkModel

    # ------------------------------------------------------------------ #
    # allreduce
    # ------------------------------------------------------------------ #
    def allreduce_ring(self, message_bytes: float, world_size: int) -> float:
        """Ring allreduce: 2(P−1) steps of ``m/P`` bytes each.

        Bandwidth-optimal for large messages; this is what Horovod/NCCL use
        for dense gradient exchange.
        """
        p = max(1, int(world_size))
        if p == 1:
            return 0.0
        chunk = message_bytes / p
        steps = 2 * (p - 1)
        return steps * self.network.point_to_point(chunk)

    def allreduce_recursive_doubling(self, message_bytes: float, world_size: int) -> float:
        """Recursive-doubling allreduce: log2(P) rounds of the full message.

        Latency-optimal; the right choice for A2SGD's 8-byte payload.
        """
        p = max(1, int(world_size))
        if p == 1:
            return 0.0
        rounds = math.ceil(math.log2(p))
        return rounds * self.network.point_to_point(message_bytes)

    def allreduce(self, message_bytes: float, world_size: int,
                  small_message_threshold: float = 4096.0) -> float:
        """Dispatch between latency- and bandwidth-optimal allreduce.

        MPI implementations switch algorithms by message size; we mimic that
        so A2SGD's two-scalar exchange is charged the latency-bound cost and
        dense exchanges the bandwidth-bound cost.
        """
        if message_bytes <= small_message_threshold:
            return self.allreduce_recursive_doubling(message_bytes, world_size)
        return self.allreduce_ring(message_bytes, world_size)

    # ------------------------------------------------------------------ #
    # allgather / neighbour exchange
    # ------------------------------------------------------------------ #
    def allgather(self, per_rank_bytes: float, world_size: int) -> float:
        """Ring allgather: (P−1) steps, each moving one rank's contribution."""
        p = max(1, int(world_size))
        if p == 1:
            return 0.0
        return (p - 1) * self.network.point_to_point(per_rank_bytes)

    def neighbor_exchange(self, message_bytes: float, max_degree: int) -> float:
        """Gossip neighbour exchange: the busiest rank's sends gate the step.

        Every rank sends its payload to each graph neighbour; sends share
        one NIC, so the critical path is ``max_degree`` sequential
        point-to-point messages.  A ring therefore costs 2 messages for any
        ``P >= 3`` (1 at ``P = 2``, where both directions collapse onto the
        single other rank) while a star's hub pays ``P − 1`` — the
        topology, not the world size, sets the price.

        ``message_bytes`` is the payload actually serialized per message:
        dense float32 parameter vectors cost ``4n`` bytes, while a
        compressed parameter exchange passes the compressor's analytic
        payload size (``wire_bits / 8``), so quantized gossip is priced by
        what travels, not by what it reconstructs.
        """
        return max(0, int(max_degree)) * self.network.point_to_point(message_bytes)

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def collective_time(self, kind: str, message_bytes: float, world_size: int) -> float:
        """Time for a named collective (used by the traffic replayer)."""
        dispatch = {
            "allreduce": self.allreduce,
            "allreduce_ring": self.allreduce_ring,
            "allreduce_recursive_doubling": self.allreduce_recursive_doubling,
            "allgather": self.allgather,
        }
        if kind not in dispatch:
            raise KeyError(f"unknown collective {kind!r}")
        return dispatch[kind](message_bytes, world_size)
