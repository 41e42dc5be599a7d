"""The dense-matrix synthetic PTB sampler: the oracle for the successor-list walk.

``repro.data.synthetic_text`` samples its Markov stream over per-state
successor lists.  These are the bodies it replaced, kept verbatim: a dense
``V × V`` transition matrix and one ``np.searchsorted`` on its row cumsum per
token.  Both consume the same draws from the same generators, so the streams
must be equal token for token (``tests/test_synthetic_text.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.synthetic_text import SyntheticTextConfig
from repro.utils.rng import new_rng


def _transition_matrix(config: SyntheticTextConfig, rng: np.random.Generator) -> np.ndarray:
    """Sparse row-stochastic transition matrix with Zipf-weighted targets."""
    vocab = config.vocab_size
    ranks = np.arange(1, vocab + 1, dtype=np.float64)
    zipf_weights = 1.0 / np.power(ranks, config.zipf_exponent)
    zipf_weights /= zipf_weights.sum()

    matrix = np.zeros((vocab, vocab), dtype=np.float64)
    for token in range(vocab):
        successors = rng.choice(vocab, size=min(config.branching, vocab), replace=False,
                                p=zipf_weights)
        probs = rng.dirichlet(np.ones(len(successors)) * 0.5)
        matrix[token, successors] = probs
    return matrix


def _sample_stream(matrix: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    vocab = matrix.shape[0]
    stream = np.empty(length, dtype=np.int64)
    current = int(rng.integers(0, vocab))
    cumulative = matrix.cumsum(axis=1)
    uniforms = rng.random(length)
    for i in range(length):
        stream[i] = current
        current = int(np.searchsorted(cumulative[current], uniforms[i]))
        if current >= vocab:  # numerical guard
            current = vocab - 1
    return stream


def reference_synthetic_ptb(config: SyntheticTextConfig) -> Tuple[np.ndarray, np.ndarray, int]:
    """``make_synthetic_ptb(config)`` through the dense-matrix sampler."""
    rng = new_rng("synthetic_ptb", config.vocab_size, config.zipf_exponent, seed=config.seed)
    matrix = _transition_matrix(config, rng)
    train = _sample_stream(matrix, config.train_tokens, new_rng("ptb_train", seed=config.seed))
    test = _sample_stream(matrix, config.test_tokens, new_rng("ptb_test", seed=config.seed))
    return train, test, config.vocab_size
