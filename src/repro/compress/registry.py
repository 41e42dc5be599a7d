"""Compressor registry.

Maps the algorithm names used throughout the paper's figures ("Dense",
"TopK", "GaussianK", "QSGD", "A2SGD") to constructors, so experiments and
benchmarks can be parameterised by name.

``COMPRESSORS`` is the :class:`repro.registry.Registry` instance;
``get_compressor`` / ``list_compressors`` are the by-name conveniences most
call sites use.
"""

from __future__ import annotations

from typing import List

from repro.compress.a2sgd import A2SGDCompressor
from repro.compress.base import Compressor
from repro.compress.dense import DenseCompressor
from repro.compress.dgc import DGCCompressor
from repro.compress.gaussiank import GaussianKCompressor
from repro.compress.qsgd import QSGDCompressor
from repro.compress.randk import RandKCompressor
from repro.compress.signsgd import SignSGDCompressor
from repro.compress.terngrad import TernGradCompressor
from repro.compress.topk import TopKCompressor
from repro.registry import Registry

COMPRESSORS = Registry("compressor", expose="compressors")
COMPRESSORS.register("dense", DenseCompressor, aliases=("dense_sgd",),
                     description="full 32-bit gradients (baseline distributed SGD)")
COMPRESSORS.register("a2sgd", A2SGDCompressor, aliases=("a2",),
                     description="the paper's two-scalar (mu+, mu-) compressor")
COMPRESSORS.register("topk", TopKCompressor,
                     description="magnitude-based sparsification (Stich et al.)")
COMPRESSORS.register("gaussiank", GaussianKCompressor,
                     description="Gaussian-threshold sparsification (Shi et al.)")
COMPRESSORS.register("qsgd", QSGDCompressor,
                     description="multi-level stochastic quantization (Alistarh et al.)")
COMPRESSORS.register("randk", RandKCompressor,
                     description="uniform random-k sparsification")
COMPRESSORS.register("terngrad", TernGradCompressor,
                     description="ternary {-1, 0, +1} quantization")
COMPRESSORS.register("signsgd", SignSGDCompressor,
                     description="1-bit sign quantization with majority vote")
COMPRESSORS.register("dgc", DGCCompressor,
                     description="deep gradient compression (momentum correction)")

#: The five algorithms compared in every figure of the paper's evaluation.
PAPER_ALGORITHMS: List[str] = ["dense", "topk", "qsgd", "gaussiank", "a2sgd"]


def list_compressors() -> List[str]:
    """Registered compressor names."""
    return COMPRESSORS.list()


def get_compressor(name: str, **kwargs) -> Compressor:
    """Construct a compressor by (case/punctuation-insensitive) name.

    Extra keyword arguments are forwarded to the constructor, e.g.
    ``get_compressor("topk", ratio=0.01)``.
    """
    return COMPRESSORS.create(name, **kwargs)
