"""Deep Gradient Compression (Lin et al., 2018) — extension baseline.

The paper's related work ([37]) discusses DGC as the high-sparsity state of
the art.  DGC extends Top-K sparsification with three tricks that let it push
sparsity to 99.9 % without losing accuracy:

* **momentum correction** — the residual accumulates a momentum-weighted
  velocity rather than the raw gradient, so delayed coordinates still receive
  their momentum when they are finally transmitted;
* **momentum factor masking** — when a coordinate is transmitted, its velocity
  *and* residual are cleared, preventing stale momentum from being applied
  twice;
* **gradient clipping** — the local gradient is clipped to a multiple of its
  own L2 norm before accumulation to bound the residual.

Included as an extension so ablation studies can compare A2SGD against a
stronger sparsifier than plain Top-K; it is not part of the paper's evaluated
baseline set.
"""

from __future__ import annotations

import numpy as np

from repro.compress.base import ExchangeKind
from repro.compress.topk import TopKCompressor


class DGCCompressor(TopKCompressor):
    """Top-K sparsification with momentum correction and factor masking.

    Parameters
    ----------
    ratio:
        Fraction of coordinates transmitted per iteration.
    momentum:
        Momentum coefficient used for the local velocity accumulation.
    clip_norm_factor:
        Gradients are clipped to ``clip_norm_factor * ||g||_2 / sqrt(n)`` per
        coordinate before accumulation; ``None`` disables clipping.
    clip_dtype:
        Dtype of the clip threshold, which numpy promotion then propagates to
        the clipped gradient and the velocity/residual state.  The historical
        ``float64`` default doubles the state memory and runs the momentum
        arithmetic in double precision; ``float32`` keeps the whole pipeline
        in single precision at the cost of one rounding of the threshold.
    """

    name = "dgc"
    exchange = ExchangeKind.ALLGATHER
    uses_error_feedback = True

    def __init__(self, ratio: float = 0.001, momentum: float = 0.9,
                 clip_norm_factor: float | None = 1.0,
                 clip_dtype: str | np.dtype = "float64"):
        super().__init__(ratio=ratio, error_feedback=True)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self.clip_norm_factor = clip_norm_factor
        self.clip_dtype = np.dtype(clip_dtype)
        if self.clip_dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("clip_dtype must be float32 or float64, "
                             f"got {clip_dtype!r}")
        self._velocity: np.ndarray | None = None

    def reset_state(self) -> None:
        super().reset_state()
        self._velocity = None

    def _clip(self, gradient: np.ndarray) -> np.ndarray:
        if self.clip_norm_factor is None:
            return gradient
        norm = float(np.linalg.norm(gradient))
        if norm == 0.0:
            return gradient
        threshold = self.clip_dtype.type(
            self.clip_norm_factor * norm / np.sqrt(gradient.size))
        return np.clip(gradient, -threshold, threshold)

    # ------------------------------------------------------------------ #
    @classmethod
    def compress_batch(cls, compressors, G):
        """DGC over the stacked ``(P, n)`` matrix: clipping, momentum
        correction, selection and momentum factor masking.

        Each rank's clip threshold comes from its own row norm (a P-element
        loop of ``_clip``).  The ``clip_dtype`` threshold scalar sets the
        dtype of the clipped rows and so of the velocity/residual state; a
        zero-norm row is left unclipped and joins the state in that dtype.
        """
        if not cls._uniform(compressors, "ratio", "momentum", "clip_norm_factor",
                            "clip_dtype"):
            return cls._compress_each(compressors, G)
        reference = compressors[0]
        G = np.asarray(G, dtype=np.float32)
        P, n = G.shape
        if reference.clip_norm_factor is None:
            clipped = G
            state_dtype = np.float32
        else:
            state_dtype = reference.clip_dtype
            clipped = np.empty((P, n), dtype=state_dtype)
            for p in range(P):
                clipped[p] = reference._clip(G[p])

        velocities = cls._stack_state(compressors, "_velocity", P, n, dtype=state_dtype)
        residuals = cls._stack_state(compressors, "_residual", P, n, dtype=state_dtype)
        velocities = reference.momentum * velocities + clipped
        residuals = residuals + velocities

        selections = cls.select_batch(compressors, residuals)
        ragged = not isinstance(selections, np.ndarray)
        if ragged:
            values = [residuals[p, idx] for p, idx in enumerate(selections)]
            for p, idx in enumerate(selections):
                residuals[p, idx] = 0.0
                velocities[p, idx] = 0.0
        else:
            # Direct fancy indexing, as in Top-K's kernel: take/put_along_axis
            # build the same index grid through Python-level helpers per call.
            row_index = np.arange(P)[:, None]
            values = residuals[row_index, selections]
            residuals[row_index, selections] = 0.0
            velocities[row_index, selections] = 0.0
        for p, compressor in enumerate(compressors):
            compressor._residual = residuals[p]
            compressor._velocity = velocities[p]

        payloads, contexts = [], []
        for p in range(P):
            payloads.append(cls.pack_payload(selections[p], values[p]))
            contexts.append({"n": n, "k": len(selections[p])})
        return payloads, contexts

    def computation_complexity(self, n: int) -> str:
        return "O(n + k log n)"
