"""The synthetic PTB corpus: the successor-list walk ≡ the dense-matrix sampler.

``repro.data.synthetic_text`` walks per-state successor lists with
``bisect_left``; ``tests/reference_synthetic_text.py`` keeps the dense
``V × V`` matrix and its per-token ``np.searchsorted`` as the oracle.  Both
consume the same draws, so every stream must match token for token — on
seeded generators across vocabularies, seeds and lengths on both sides of
the walk's chunk size, and on stub generators that drive the lookup's edge
cases: a uniform of exactly ``0.0``, a uniform equal to a cumulative, and a
uniform above a row's last cumulative.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.registry import get_dataset
from repro.data.synthetic_text import (
    _CHUNK,
    SyntheticTextConfig,
    _sample_stream,
    _successor_lists,
    make_synthetic_ptb,
)
from repro.utils.rng import new_rng
from tests import reference_synthetic_text as reference


@pytest.mark.parametrize("vocab,seed,length", [
    (50, 0, _CHUNK - 1), (50, 7, 3 * _CHUNK + 5),
    (200, 0, _CHUNK), (200, 3, _CHUNK + 1), (200, 7, 2 * _CHUNK),
    (1000, 1, _CHUNK + 1), (1000, 5, 500),
])
def test_stream_equals_dense_oracle(vocab, seed, length):
    config = SyntheticTextConfig(vocab_size=vocab, train_tokens=length, test_tokens=777,
                                 seed=seed)
    train, test, size = make_synthetic_ptb(config)
    ref_train, ref_test, ref_size = reference.reference_synthetic_ptb(config)
    assert size == ref_size == vocab
    np.testing.assert_array_equal(train, ref_train)
    np.testing.assert_array_equal(test, ref_test)


class _StubGenerator:
    """Serves a fixed start state and a fixed sequence of uniforms, in
    whatever chunks the sampler asks for them."""

    def __init__(self, start: int, uniforms):
        self.start = start
        self.uniforms = np.asarray(uniforms, dtype=np.float64)
        self.drawn = 0

    def integers(self, low, high):
        assert low <= self.start < high
        return self.start

    def random(self, size):
        out = self.uniforms[self.drawn:self.drawn + size]
        assert len(out) == size, "sampler drew more uniforms than the stream needs"
        self.drawn += size
        return out.copy()


def _both_structures(vocab: int, seed: int = 0):
    config = SyntheticTextConfig(vocab_size=vocab, seed=seed)

    def key():
        return new_rng("synthetic_ptb", vocab, config.zipf_exponent, seed=seed)

    return _successor_lists(config, key()), reference._transition_matrix(config, key())


def _walk_both(rows, matrix, start, uniforms):
    new = _sample_stream(rows, len(uniforms), _StubGenerator(start, uniforms))
    old = reference._sample_stream(matrix, len(uniforms), _StubGenerator(start, uniforms))
    np.testing.assert_array_equal(new, old)
    return new


@pytest.mark.parametrize("vocab", [50, 200])
def test_zero_uniform_lands_on_column_zero(vocab):
    rows, matrix = _both_structures(vocab)
    # Column 0 is rarely a successor; searchsorted on the dense row still
    # returns it for u == 0.0, because the row's leading zeros reach 0.0.
    start = next(s for s in range(vocab) if matrix[s, 0] == 0.0)
    stream = _walk_both(rows, matrix, start, [0.0, 0.0, 0.5])
    assert list(stream[:2]) == [start, 0]


@pytest.mark.parametrize("vocab", [50, 200, 1000])
def test_uniform_equal_to_a_cumulative_takes_that_column(vocab):
    rows, matrix = _both_structures(vocab)
    cumulative = matrix.cumsum(axis=1)
    start = 3
    columns = np.flatnonzero(matrix[start])
    tie = columns[len(columns) // 2]
    stream = _walk_both(rows, matrix, start, [cumulative[start, tie], 0.25])
    assert stream[1] == tie


@pytest.mark.parametrize("vocab", [50, 200, 1000])
def test_uniform_above_the_row_total_lands_on_the_last_column(vocab):
    rows, matrix = _both_structures(vocab)
    totals = matrix.cumsum(axis=1)[:, -1]
    # A row whose float64 sum falls just short of 1.0 is the realistic case;
    # any row serves with a uniform just above its total.
    short = np.flatnonzero(totals < 1.0)
    start = int(short[0]) if len(short) else 0
    above = np.nextafter(totals[start], np.inf)
    stream = _walk_both(rows, matrix, start, [above, 0.5])
    assert stream[1] == vocab - 1


def test_paper_preset_corpus_fits_in_memory():
    """The 10,000-word corpus keeps successor lists, not a dense ``V × V``
    float64 matrix (763 MiB, twice over with its cumsum)."""
    tracemalloc.start()
    try:
        train, test, vocab = get_dataset("ptb", num_train=2_000, num_test=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (vocab, train.shape, test.shape) == (10_000, (2_000,), (200,))
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
