"""Convergence diagnostics tied to the paper's theoretical analysis (§3.2).

The analysis rests on three ingredients that can be checked numerically:

* **Assumption 3 (gradient bound)** — ``E‖g_t + ∇µ_t‖² ≤ A + B‖w − w*‖²``.
  :func:`assumption3_bound_estimate` fits the smallest ``(A, B)`` consistent
  with observed samples; :func:`empirical_gradient_bound_holds` checks that a
  run's samples admit finite constants.
* **Variance preservation** — the reason A2SGD keeps local errors is so the
  reconstructed gradient has (almost) the variance of the dense gradient.
  :func:`variance_ratio` measures it.
* **Mean preservation** — averaging the reconstructed gradients over workers
  should equal averaging the raw gradients up to the difference between
  local and global means; :func:`reconstruction_preserves_mean` quantifies
  the gap.

:func:`single_shot_error` measures how much of one gradient a compressor's
payload loses before error feedback (the column ``repro compare`` prints).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.compress.a2sgd import A2SGDCompressor
from repro.compress.base import Compressor, ExchangeKind


def assumption3_bound_estimate(gradient_norms_sq: Sequence[float],
                               distances_sq: Sequence[float]) -> Tuple[float, float]:
    """Smallest (A, B) with ``‖g + ∇µ‖² ≤ A + B·‖w − w*‖²`` on the samples.

    A simple robust fit: B is the slope that covers the upper envelope of the
    scatter, A the residual intercept.  Finite values mean the finite-sample
    proxy of Assumption 3 holds for the observed run.
    """
    norms = np.asarray(list(gradient_norms_sq), dtype=np.float64)
    dists = np.asarray(list(distances_sq), dtype=np.float64)
    if norms.size == 0 or norms.size != dists.size:
        raise ValueError("need equally many gradient norms and distances")
    positive = dists > 1e-12
    if positive.any():
        slope = float(np.max(norms[positive] / dists[positive]))
    else:
        slope = 0.0
    intercept = float(np.max(norms - slope * dists))
    return max(0.0, intercept), max(0.0, slope)


def empirical_gradient_bound_holds(gradient_norms_sq: Sequence[float],
                                   distances_sq: Sequence[float],
                                   max_constant: float = 1e9) -> bool:
    """True when finite constants (A, B) below ``max_constant`` exist."""
    a, b = assumption3_bound_estimate(gradient_norms_sq, distances_sq)
    return np.isfinite(a) and np.isfinite(b) and a <= max_constant and b <= max_constant


def variance_ratio(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Var(reconstructed) / Var(original) — should stay near 1 for A2SGD."""
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    denom = float(original.var())
    if denom == 0.0:
        return 1.0 if float(reconstructed.var()) == 0.0 else float("inf")
    return float(reconstructed.var()) / denom


def reconstruction_preserves_mean(gradients: Sequence[np.ndarray]) -> float:
    """Relative gap between dense averaging and A2SGD reconstruction averaging.

    Runs one full A2SGD exchange over ``gradients`` (one per worker) and
    compares the across-worker mean of the reconstructed gradients with the
    plain mean of the raw gradients.  The gap stems only from the ∇µ term and
    should be small relative to the gradient norm.
    """
    gradients = [np.asarray(g, dtype=np.float32).reshape(-1) for g in gradients]
    compressors = [A2SGDCompressor() for _ in gradients]
    payloads, contexts = [], []
    for compressor, gradient in zip(compressors, gradients):
        payload, ctx = compressor.compress(gradient)
        payloads.append(payload)
        contexts.append(ctx)
    global_means = np.mean(np.stack(payloads), axis=0)
    reconstructed = [compressor.decompress(global_means, ctx)
                     for compressor, ctx in zip(compressors, contexts)]
    dense_average = np.mean(np.stack(gradients), axis=0)
    a2sgd_average = np.mean(np.stack(reconstructed), axis=0)
    scale = float(np.linalg.norm(dense_average)) or 1.0
    return float(np.linalg.norm(a2sgd_average - dense_average)) / scale


def single_shot_error(compressor: Compressor, gradient: np.ndarray) -> float:
    """``‖g − ĝ‖ / ‖g‖`` for one compression of ``gradient`` by a fresh
    ``compressor`` acting as a lone rank.

    ``ĝ`` is what the rank reconstructs from its own payload (the Allreduce
    mean or the Allgather of one), without the error it retains locally — the
    context's ``error``, A2SGD's ε.  An all-zero gradient divides by 1.
    """
    payload, ctx = compressor.compress(gradient)
    if compressor.exchange is ExchangeKind.ALLREDUCE:
        estimate = compressor.decompress(payload, ctx)
    else:
        estimate = compressor.decompress_gathered([payload], ctx)
    estimate = np.asarray(estimate, dtype=np.float64) - ctx.get("error", 0.0)
    gradient = np.asarray(gradient, dtype=np.float64)
    scale = float(np.linalg.norm(gradient)) or 1.0
    return float(np.linalg.norm(gradient - estimate)) / scale


def time_to_accuracy(times: Sequence[float], values: Sequence[float],
                     target: float, higher_is_better: bool = True) -> float:
    """First simulated time at which ``values`` crosses ``target``.

    ``times`` is the per-epoch simulated clock (monotone non-decreasing),
    ``values`` the matching metric curve.  The crossing is linearly
    interpolated between the bracketing epochs, so two runs evaluated at
    different cadences compare fairly; returns ``inf`` when the target is
    never reached.  ``higher_is_better=False`` flips the comparison for
    loss/perplexity-style metrics.
    """
    times = np.asarray(list(times), dtype=np.float64)
    values = np.asarray(list(values), dtype=np.float64)
    if times.size == 0 or times.size != values.size:
        raise ValueError("need equally many (non-zero) times and metric values")
    reached = values >= target if higher_is_better else values <= target
    reached &= np.isfinite(values) & np.isfinite(times)
    if not reached.any():
        return float("inf")
    i = int(np.argmax(reached))           # first crossing index
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    v0, v1 = values[i - 1], values[i]
    if not (np.isfinite(v0) and np.isfinite(t0)) or v1 == v0:
        return float(t1)
    frac = (target - v0) / (v1 - v0)
    frac = min(max(float(frac), 0.0), 1.0)
    return float(t0 + frac * (t1 - t0))


def track_gradient_bound_samples(weights: Sequence[np.ndarray],
                                 gradients: Sequence[np.ndarray],
                                 optimum: np.ndarray) -> Tuple[List[float], List[float]]:
    """Build the (‖g‖², ‖w − w*‖²) sample lists Assumption 3 is checked on."""
    norms = [float(np.linalg.norm(g) ** 2) for g in gradients]
    distances = [float(np.linalg.norm(np.asarray(w) - optimum) ** 2) for w in weights]
    return norms, distances
