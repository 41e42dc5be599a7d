"""Gradient compression algorithms.

The paper's contribution (:class:`A2SGDCompressor`) and the baselines its
evaluation compares against:

* :class:`DenseCompressor` — default distributed SGD, full 32-bit gradients;
* :class:`TopKCompressor` — magnitude-based sparsification (Stich et al.);
* :class:`GaussianKCompressor` — Gaussian-threshold sparsification (Shi et al.);
* :class:`QSGDCompressor` — multi-level stochastic quantization (Alistarh et al.);

plus three extensions mentioned in the paper's related work that are useful
for ablations: :class:`RandKCompressor`, :class:`TernGradCompressor` and
:class:`SignSGDCompressor`.

All compressors share the :class:`Compressor` interface: ``compress`` turns a
flat local gradient into a wire payload plus per-iteration context,
``decompress``/``decompress_gathered`` turns the globally exchanged payload
back into the gradient used for the model update, and the analytic methods
``wire_bits``/``computation_complexity`` report the Table 2 quantities.
"""

from repro.compress.base import Compressor, ExchangeKind
from repro.compress.param_delta import ParameterDeltaCodec
from repro.compress.dense import DenseCompressor
from repro.compress.a2sgd import A2SGDCompressor
from repro.compress.topk import TopKCompressor
from repro.compress.gaussiank import GaussianKCompressor
from repro.compress.qsgd import QSGDCompressor
from repro.compress.randk import RandKCompressor
from repro.compress.terngrad import TernGradCompressor
from repro.compress.signsgd import SignSGDCompressor
from repro.compress.dgc import DGCCompressor
from repro.compress.registry import COMPRESSORS, get_compressor, list_compressors

__all__ = [
    "Compressor",
    "ExchangeKind",
    "ParameterDeltaCodec",
    "DenseCompressor",
    "A2SGDCompressor",
    "TopKCompressor",
    "GaussianKCompressor",
    "QSGDCompressor",
    "RandKCompressor",
    "TernGradCompressor",
    "SignSGDCompressor",
    "DGCCompressor",
    "COMPRESSORS",
    "get_compressor",
    "list_compressors",
]
