"""repro — reproduction of A2SGD (two-level gradient averaging for distributed SGD).

The package is organised as a stack of subsystems:

``repro.tensor``
    A from-scratch reverse-mode autograd engine on top of NumPy.
``repro.nn``
    Neural-network layers (Linear, Conv2d, BatchNorm, LSTM, ...) built on the
    tensor engine.
``repro.optim``
    SGD / LARS optimizers and the learning-rate policies used in the paper
    (linear scaling, gradual warmup, polynomial decay).
``repro.models``
    The four evaluation models: FNN-3, VGG-16, ResNet-20 and LSTM-PTB.
``repro.data``
    Synthetic stand-ins for MNIST, CIFAR-10 and Penn Treebank plus data
    loading / per-worker sharding.
``repro.comm``
    The communication substrate: an in-process multi-worker world with real
    collective algorithms (ring Allreduce, Allgather, ...) and an analytic
    latency/bandwidth network model for a 100 Gbps InfiniBand cluster.
``repro.compress``
    Gradient compression algorithms: the paper's contribution (A2SGD) and the
    baselines it compares against (Dense, Top-K, Gaussian-K, QSGD) plus a few
    extensions (Rand-K, TernGrad, SignSGD).
``repro.sync``
    Pluggable synchronization: strategies (allreduce, local SGD, gossip),
    aggregators (mean and Byzantine-robust trimmed mean / medians) and the
    declarative ``SyncSpec`` that composes them with the comm topologies.
``repro.core``
    The distributed trainer, metrics, cost model and experiment runner that
    tie everything together.
``repro.analysis``
    Gradient statistics, convergence diagnostics, scaling-efficiency
    calculations and text renderers for the paper's tables and figures.
"""

from repro.version import __version__

from repro.utils import denormals

# Subnormal floats run through 10-100x-slower microcode assists on x86, and
# training produces them constantly (saturated gates, BPTT chain products,
# softmax tails).  Flush them at the hardware level for the importing thread,
# exactly as PyTorch does by default; set REPRO_KEEP_DENORMALS=1 to opt out.
denormals.enable_flush_to_zero()

from repro.compress import (
    A2SGDCompressor,
    Compressor,
    DenseCompressor,
    GaussianKCompressor,
    QSGDCompressor,
    RandKCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
    get_compressor,
)
from repro.registry import Registry, RegistryKeyError
from repro.core import (
    CALLBACKS,
    Callback,
    CostModel,
    DistributedTrainer,
    ExperimentResult,
    ExperimentSpec,
    IterationTimeline,
    SpecError,
    TrainState,
    TrainingMetrics,
    run_algorithm_sweep,
    run_experiment,
)
from repro.comm import (
    InProcessWorld,
    NetworkModel,
    infiniband_100gbps,
)
from repro.sync import (
    AGGREGATORS,
    SYNC_STRATEGIES,
    Aggregator,
    SyncSpec,
    SyncStrategy,
    get_aggregator,
)

__all__ = [
    "__version__",
    # compressors
    "Compressor",
    "A2SGDCompressor",
    "DenseCompressor",
    "TopKCompressor",
    "GaussianKCompressor",
    "QSGDCompressor",
    "RandKCompressor",
    "TernGradCompressor",
    "SignSGDCompressor",
    "get_compressor",
    # core
    "DistributedTrainer",
    "CostModel",
    "IterationTimeline",
    "TrainingMetrics",
    "ExperimentResult",
    "ExperimentSpec",
    "SpecError",
    "run_experiment",
    "run_algorithm_sweep",
    # registry + callbacks
    "Registry",
    "RegistryKeyError",
    "CALLBACKS",
    "Callback",
    "TrainState",
    # comm
    "InProcessWorld",
    "NetworkModel",
    "infiniband_100gbps",
    # synchronization
    "SYNC_STRATEGIES",
    "SyncStrategy",
    "SyncSpec",
    "AGGREGATORS",
    "Aggregator",
    "get_aggregator",
]
