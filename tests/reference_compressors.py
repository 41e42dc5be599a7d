"""The per-rank compressor bodies the batch kernels are tested against.

Every compressor in ``repro.compress`` implements Algorithm 1 once, as the
``compress_batch`` / ``decompress_batch`` kernels over the stacked
``(P, n)`` matrix; its per-rank ``compress`` / ``decompress`` come from the
base class as a batch of one.  The functions below are the per-rank bodies
the compressors carried before that, verbatim as free functions over a
compressor instance (``self``), together with the helpers only they called
(Top-K's ``select``, ``_accumulate_residual``, A2SGD's
``two_level_means``/``encode``, QSGD's ``quantize_bucketed`` with the
bucketed quantize / dequantize its compressor carried before its
whole-matrix kernel), less the compression statistics the compressors no
longer keep.
``tests/test_compress_batched.py`` pins the kernels to them;
``tests/reference_trainer.py`` runs them end to end.
"""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.compress import (
    A2SGDCompressor,
    DenseCompressor,
    DGCCompressor,
    QSGDCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
)
from repro.compress.base import select_by_mask, sparsity_k


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def flatten(gradient: np.ndarray) -> np.ndarray:
    gradient = np.asarray(gradient)
    if gradient.ndim != 1:
        raise ValueError("compressors operate on flat (1-D) gradient vectors")
    return gradient


def two_level_means(gradient: np.ndarray,
                    positive_mask: Optional[np.ndarray] = None) -> Tuple[float, float]:
    """Absolute means of the non-negative and negative entries (µ_+, µ_-)."""
    gradient = np.asarray(gradient)
    if positive_mask is None:
        positive_mask = gradient >= 0
    positive_sum = float(np.dot(gradient, positive_mask.astype(gradient.dtype)))
    negative_sum = -float(np.dot(gradient, (~positive_mask).astype(gradient.dtype)))
    positive_count = int(np.count_nonzero(positive_mask))
    negative_count = gradient.size - positive_count
    mu_plus = positive_sum / positive_count if positive_count else 0.0
    mu_minus = negative_sum / negative_count if negative_count else 0.0
    # Guard against tiny negative values from rounding when one side is
    # (nearly) empty.
    return max(0.0, mu_plus), max(0.0, mu_minus)


def encode(gradient: np.ndarray, mu_plus: float, mu_minus: float) -> np.ndarray:
    """The paper's ``enc(v) = pos(v)·µ_+ − neg(v)·µ_-`` operator (selected
    in float32, the gradient pipeline's dtype)."""
    encoded = select_by_mask(np.empty(gradient.shape, dtype=np.float32),
                             gradient >= 0, mu_plus, -mu_minus)
    return encoded.astype(gradient.dtype, copy=False)


def accumulate_residual(self, gradient: np.ndarray) -> np.ndarray:
    if not self.error_feedback:
        return gradient
    if self._residual is None or self._residual.shape != gradient.shape:
        self._residual = np.zeros_like(gradient)
    return self._residual + gradient


def select(self, corrected: np.ndarray) -> np.ndarray:
    """Indices of the k largest-magnitude coordinates (unordered); Rand-K and
    Gaussian-K keep their own ``select``."""
    own = getattr(self, "select", None)
    if own is not None:
        return own(corrected)
    k = sparsity_k(corrected.size, self.ratio)
    if k >= corrected.size:
        return np.arange(corrected.size)
    # argpartition gives the top-k set in O(n); full sorting is not needed.
    return np.argpartition(np.abs(corrected), -k)[-k:]


def bucket_bounds(self, n: int) -> np.ndarray:
    size = self.bucket_size or n
    return np.arange(0, n + size, size)[:max(2, int(np.ceil(n / size)) + 1)]


def quantize_rows(self, M: np.ndarray,
                  rngs: Sequence[np.random.Generator]) -> Tuple[np.ndarray, np.ndarray]:
    """QSGD's bucketed quantization of ``(P, n)`` rows as the compressor
    carried it before its whole-matrix kernel: float64 norms, ``(P, n)``
    signed int8 levels."""
    P, n = M.shape
    size = int(self.bucket_size or n)
    bounds = bucket_bounds(self, n)
    num_buckets = len(bounds) - 1
    padded = np.zeros((P, num_buckets * size), dtype=np.float32)
    padded[:, :n] = M
    blocks = padded.reshape(P, num_buckets, size)

    norms32 = np.sqrt((blocks * blocks).sum(axis=2, dtype=np.float32))
    safe_norms = np.where(norms32 > 0, norms32, np.float32(1.0))
    scaled = np.abs(blocks) / safe_norms[:, :, None] * self.levels
    lower = np.floor(scaled)
    probability_up = scaled - lower
    draws = np.stack([rng.random((num_buckets, size)) for rng in rngs])
    rounded = np.clip(lower + (draws < probability_up), 0, self.levels)
    signed = (np.sign(blocks) * rounded).astype(np.int8)
    return norms32.astype(np.float64), signed.reshape(P, -1)[:, :n]


def dequantize_bucketed(self, norms: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_rows` in float64 (row- or matrix-shaped)."""
    norms = np.asarray(norms, dtype=np.float64)
    levels = np.asarray(levels)
    n = levels.shape[-1]
    bounds = bucket_bounds(self, n)
    sizes = np.minimum(bounds[1:], n) - bounds[:-1]
    scales = np.repeat(norms, sizes, axis=-1)
    return np.asarray(levels, dtype=np.float64) / self.levels * scales


def quantize_bucketed(self, vector: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Quantize per bucket; returns (per-bucket norms, signed levels)."""
    vector = np.asarray(vector, dtype=np.float32)
    norms, levels = quantize_rows(self, vector[None, :], [self.rng])
    return norms[0], levels[0]


# ---------------------------------------------------------------------- #
# per-rank bodies
# ---------------------------------------------------------------------- #
def a2sgd_compress(self, gradient: np.ndarray) -> Tuple[np.ndarray, Dict]:
    gradient = flatten(gradient)
    positive_mask = gradient >= 0

    if self.two_means:
        mu_plus, mu_minus = two_level_means(gradient, positive_mask)
        encoded = select_by_mask(np.empty(gradient.shape, dtype=np.float32),
                                 positive_mask, mu_plus, -mu_minus)
        payload = np.array([mu_plus, mu_minus], dtype=np.float64)
    else:
        # Single-mean ablation: one signed mean replaces every entry.
        mu = float(gradient.mean())
        encoded = np.full_like(gradient, mu)
        payload = np.array([mu, 0.0], dtype=np.float64)

    error = gradient - encoded if self.error_feedback else np.zeros_like(gradient)
    ctx = {"positive_mask": positive_mask, "error": error}
    return payload, ctx


def a2sgd_decompress(self, global_payload: np.ndarray, ctx: Dict) -> np.ndarray:
    global_payload = np.asarray(global_payload, dtype=np.float64)
    if global_payload.shape != (2,):
        raise ValueError("A2SGD expects a global payload of exactly two means")
    positive_mask = ctx["positive_mask"]
    reconstructed = np.empty(positive_mask.shape, dtype=np.float32)
    if self.two_means:
        select_by_mask(reconstructed, positive_mask,
                       global_payload[0], -global_payload[1])
    else:
        reconstructed.fill(global_payload[0])
    return ctx["error"] + reconstructed


def dense_compress(self, gradient: np.ndarray) -> Tuple[np.ndarray, Dict]:
    gradient = flatten(gradient)
    return gradient, {}


def dense_decompress(self, global_payload: np.ndarray, ctx: Dict) -> np.ndarray:
    return np.asarray(global_payload)


def topk_compress(self, gradient: np.ndarray) -> Tuple[np.ndarray, Dict]:
    gradient = flatten(gradient)
    corrected = accumulate_residual(self, gradient)
    indices = select(self, corrected)
    values = corrected[indices]

    if self.error_feedback:
        self._residual = corrected.copy()
        self._residual[indices] = 0.0

    # Payload layout: [indices..., values...] in one float32 array so the
    # collective layer only ever moves flat numeric buffers.
    payload = self.pack_payload(indices, values)
    ctx = {"n": gradient.size, "k": len(indices)}
    return payload, ctx


def topk_decompress_gathered(self, payloads: Sequence[np.ndarray], ctx: Dict) -> np.ndarray:
    n = int(ctx["n"])
    dense = np.zeros(n, dtype=np.float64)
    for payload in payloads:
        indices, values = self.unpack_payload(payload)
        # Indices are unique within one payload (they come from a top-k /
        # random-subset selection), so a direct fancy-index add suffices —
        # no unbuffered np.add.at needed.
        dense[indices] += values.astype(np.float64)
    return (dense / len(payloads)).astype(np.float32)


def dgc_compress(self, gradient: np.ndarray) -> Tuple[np.ndarray, Dict]:
    gradient = flatten(gradient)
    clipped = self._clip(gradient)

    if self._velocity is None or self._velocity.shape != gradient.shape:
        self._velocity = np.zeros_like(gradient)
    if self._residual is None or self._residual.shape != gradient.shape:
        self._residual = np.zeros_like(gradient)

    # Momentum correction: accumulate velocity locally, then accumulate the
    # velocity (not the raw gradient) into the residual.
    self._velocity = self.momentum * self._velocity + clipped
    self._residual = self._residual + self._velocity

    indices = select(self, self._residual)
    values = self._residual[indices]

    # Momentum factor masking: clear both accumulators on the transmitted
    # coordinates so their momentum is not applied twice.
    self._residual[indices] = 0.0
    self._velocity[indices] = 0.0

    payload = self.pack_payload(indices, values)
    return payload, {"n": gradient.size, "k": len(indices)}


def qsgd_compress(self, gradient: np.ndarray) -> Tuple[np.ndarray, Dict]:
    gradient = flatten(gradient)
    if self.error_feedback:
        if self._residual is None or self._residual.shape != gradient.shape:
            self._residual = np.zeros_like(gradient)
        corrected = self._residual + gradient
    else:
        corrected = gradient

    norms, levels = quantize_bucketed(self, corrected)
    estimate = dequantize_bucketed(self, norms, levels).astype(gradient.dtype)
    if self.error_feedback:
        self._residual = corrected - estimate

    # Payload layout: [#buckets, norms..., levels...] — levels are small
    # integers, so a real deployment would entropy-code them into ≈2.8
    # bits each.
    payload = np.concatenate([[float(len(norms))], norms,
                              levels.astype(np.float64)])
    return payload, {"n": gradient.size}


def qsgd_decompress_gathered(self, payloads: Sequence[np.ndarray], ctx: Dict) -> np.ndarray:
    n = int(ctx["n"])
    total = np.zeros(n, dtype=np.float64)
    for payload in payloads:
        payload = np.asarray(payload, dtype=np.float64)
        num_buckets = int(payload[0])
        norms = payload[1:1 + num_buckets]
        levels = payload[1 + num_buckets:]
        total += dequantize_bucketed(self, norms, levels)
    return (total / len(payloads)).astype(np.float32)


def terngrad_compress(self, gradient: np.ndarray) -> Tuple[np.ndarray, Dict]:
    gradient = flatten(gradient).astype(np.float64)
    work = gradient
    if self.clip_std is not None and gradient.size > 1:
        sigma = gradient.std()
        if sigma > 0:
            bound = self.clip_std * sigma
            work = np.clip(gradient, -bound, bound)
    scale = float(np.abs(work).max())
    if scale == 0.0:
        ternary = np.zeros(gradient.size, dtype=np.int8)
    else:
        probability = np.abs(work) / scale
        ternary = (np.sign(work) * (self.rng.random(gradient.size) < probability)
                   ).astype(np.int8)
    payload = np.concatenate([[scale], ternary.astype(np.float64)])
    return payload, {"n": gradient.size}


def signsgd_compress(self, gradient: np.ndarray) -> Tuple[np.ndarray, Dict]:
    gradient = flatten(gradient)
    if self.error_feedback:
        if self._residual is None or self._residual.shape != gradient.shape:
            self._residual = np.zeros_like(gradient)
        corrected = self._residual + gradient
    else:
        corrected = gradient

    scale = float(np.abs(corrected).mean())
    signs = np.sign(corrected)
    estimate = (scale * signs).astype(gradient.dtype)
    if self.error_feedback:
        self._residual = corrected - estimate

    payload = np.concatenate([[scale], signs.astype(np.float64)])
    return payload, {"n": gradient.size}


def scaled_decompress_gathered(self, payloads: Sequence[np.ndarray], ctx: Dict) -> np.ndarray:
    """TernGrad's and SignSGD's (identical) ``decompress_gathered``."""
    n = int(ctx["n"])
    total = np.zeros(n, dtype=np.float64)
    for payload in payloads:
        payload = np.asarray(payload, dtype=np.float64)
        total += payload[0] * payload[1:]
    return (total / len(payloads)).astype(np.float32)


# ---------------------------------------------------------------------- #
# dispatch (first match along the compressor's MRO: DGC before Top-K,
# Rand-K / Gaussian-K inherit Top-K's bodies)
# ---------------------------------------------------------------------- #
COMPRESS = {
    A2SGDCompressor: a2sgd_compress,
    DenseCompressor: dense_compress,
    DGCCompressor: dgc_compress,
    TopKCompressor: topk_compress,
    QSGDCompressor: qsgd_compress,
    TernGradCompressor: terngrad_compress,
    SignSGDCompressor: signsgd_compress,
}
DECOMPRESS = {
    A2SGDCompressor: a2sgd_decompress,
    DenseCompressor: dense_decompress,
    TopKCompressor: topk_decompress_gathered,
    QSGDCompressor: qsgd_decompress_gathered,
    TernGradCompressor: scaled_decompress_gathered,
    SignSGDCompressor: scaled_decompress_gathered,
}


def _body(table, compressor):
    for cls in type(compressor).__mro__:
        if cls in table:
            return table[cls]
    raise TypeError(f"no per-rank reference for {type(compressor).__name__}")


def compress(compressor, gradient: np.ndarray) -> Tuple[np.ndarray, Dict]:
    """The per-rank ``compress`` of ``compressor``'s family."""
    return _body(COMPRESS, compressor)(compressor, gradient)


def decompress(compressor, exchanged, ctx: Dict) -> np.ndarray:
    """The per-rank ``decompress`` (Allreduce: ``exchanged`` is the reduced
    payload) or ``decompress_gathered`` (Allgather: the payload list)."""
    return _body(DECOMPRESS, compressor)(compressor, exchanged, ctx)
