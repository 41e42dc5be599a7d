"""Communication substrate for simulated data-parallel training.

The paper runs Horovod/MPI Allreduce over 16 GPU nodes on 100 Gbps
InfiniBand.  This package replaces that stack with:

* :mod:`repro.comm.collectives` — faithful collective algorithms (ring
  Allreduce, ring Allgather, the gossip neighbour exchange) that
  operate on the per-rank NumPy buffers of an in-process "world" and report
  exactly how many bytes each rank sent;
* :mod:`repro.comm.network_model` — an α–β (latency–bandwidth) cost model
  that converts those byte counts and round structures into time, with a
  preset for the paper's 100 Gbps InfiniBand fabric;
* :mod:`repro.comm.inprocess` — :class:`InProcessWorld`, which ties the two
  together and keeps per-rank traffic/time accounting for the evaluation
  harness;
* :mod:`repro.comm.topology` — node/link descriptions used by the network
  model, plus the logical communication graphs (ring / star /
  fully-connected) that gossip synchronization averages over.
"""

from repro.comm.backend import CollectiveOp, Communicator
from repro.comm.collectives import (
    CollectiveTrace,
    allgather,
    allreduce_ring,
    neighbor_exchange,
)
from repro.comm.inprocess import InProcessWorld, WorldStats
from repro.comm.network_model import (
    CollectiveTimeModel,
    NetworkModel,
    ethernet_10gbps,
    infiniband_100gbps,
)
from repro.comm.topology import (
    TOPOLOGIES,
    ClusterTopology,
    CommTopology,
    FullyConnectedTopology,
    NodeSpec,
    RingTopology,
    StarTopology,
    get_topology,
)

__all__ = [
    "Communicator",
    "CollectiveOp",
    "CollectiveTrace",
    "allreduce_ring",
    "allgather",
    "neighbor_exchange",
    "InProcessWorld",
    "WorldStats",
    "NetworkModel",
    "CollectiveTimeModel",
    "infiniband_100gbps",
    "ethernet_10gbps",
    "ClusterTopology",
    "NodeSpec",
    "CommTopology",
    "RingTopology",
    "StarTopology",
    "FullyConnectedTopology",
    "TOPOLOGIES",
    "get_topology",
]
