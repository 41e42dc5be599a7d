"""Synthetic Penn-Treebank-style token stream for the LSTM-PTB experiments.

The generator produces a first-order Markov token stream over a vocabulary
with a Zipf-distributed stationary distribution.  A language model can reduce
perplexity substantially below the uniform baseline by learning the
transition structure, so the relative convergence of compressors — the
quantity Figure 3(d) of the paper reports — is observable on this synthetic
corpus.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.utils.rng import new_rng


@dataclass(frozen=True)
class SyntheticTextConfig:
    """Parameters of the synthetic language-modelling corpus."""

    vocab_size: int = 200
    train_tokens: int = 20_000
    test_tokens: int = 4_000
    zipf_exponent: float = 1.1
    branching: int = 8          # out-degree of each token in the Markov chain
    seed: int = 0


#: Uniforms drawn and converted to Python floats per chunk of the walk, so a
#: long stream never holds one float object per token at once.
_CHUNK = 4_096


def _successor_lists(config: SyntheticTextConfig, rng: np.random.Generator
                     ) -> List[Tuple[List[float], List[int]]]:
    """Per state, its successors' cumulative probabilities and column ids.

    Each state draws ``branching`` distinct Zipf-weighted successors and
    Dirichlet(0.5) probabilities for them.  The successors are kept in column
    order, so their running sum is exactly the row cumsum of the dense
    ``V × V`` transition matrix at those columns (the dense row only adds
    ``+0.0`` in between).  Two sentinels make the walk's lookup exact without
    a branch: a leading cumulative ``0.0`` whose column is 0 (a uniform of
    exactly ``0.0`` lands on column 0, as ``searchsorted`` on the dense row
    does), and a trailing column ``vocab − 1`` for a uniform above the row's
    last cumulative (a row that sums to just under 1.0).
    """
    vocab = config.vocab_size
    ranks = np.arange(1, vocab + 1, dtype=np.float64)
    zipf_weights = 1.0 / np.power(ranks, config.zipf_exponent)
    zipf_weights /= zipf_weights.sum()

    rows = []
    for _ in range(vocab):
        successors = rng.choice(vocab, size=min(config.branching, vocab), replace=False,
                                p=zipf_weights)
        probs = rng.dirichlet(np.ones(len(successors)) * 0.5)
        order = np.argsort(successors)
        rows.append(([0.0] + np.cumsum(probs[order]).tolist(),
                     [0] + successors[order].tolist() + [vocab - 1]))
    return rows


def _sample_stream(rows: List[Tuple[List[float], List[int]]], length: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Walk the chain for ``length`` tokens from a uniformly drawn start.

    The next state is the first column whose dense cumulative reaches the
    token's uniform: ``bisect_left`` over the state's successor cumulatives.
    """
    stream = np.empty(length, dtype=np.int64)
    current = int(rng.integers(0, len(rows)))
    for start in range(0, length, _CHUNK):
        chunk = []
        append = chunk.append
        for u in rng.random(min(_CHUNK, length - start)).tolist():
            append(current)
            cumulative, columns = rows[current]
            current = columns[bisect_left(cumulative, u)]
        stream[start:start + len(chunk)] = chunk
    return stream


def make_synthetic_ptb(config: SyntheticTextConfig | None = None,
                       seed: int = 0) -> Tuple[np.ndarray, np.ndarray, int]:
    """Build (train_tokens, test_tokens, vocab_size) token streams."""
    config = config if config is not None else SyntheticTextConfig(seed=seed)
    rng = new_rng("synthetic_ptb", config.vocab_size, config.zipf_exponent, seed=config.seed)
    rows = _successor_lists(config, rng)
    train = _sample_stream(rows, config.train_tokens, new_rng("ptb_train", seed=config.seed))
    test = _sample_stream(rows, config.test_tokens, new_rng("ptb_test", seed=config.seed))
    return train, test, config.vocab_size


class LanguageModelBatcher:
    """Batchify a token stream for truncated-BPTT training.

    The stream is reshaped into ``batch_size`` parallel sequences (as in the
    standard PTB training recipe); :meth:`batches` yields
    ``(inputs, targets)`` pairs of shape ``(seq_len, batch_size)`` where the
    targets are the inputs shifted by one position.  Every :meth:`batches`
    call is one pass; ``cursor``, the windows it has yielded, is what a
    checkpoint saves.
    """

    def __init__(self, tokens: np.ndarray, batch_size: int, seq_len: int):
        tokens = np.asarray(tokens, dtype=np.int64)
        if batch_size < 1 or seq_len < 1:
            raise ValueError("batch_size and seq_len must be positive")
        usable = (len(tokens) // batch_size) * batch_size
        if usable < 2 * batch_size:
            raise ValueError("token stream too short for the requested batch size")
        self.batch_size = int(batch_size)
        self.seq_len = int(seq_len)
        self.data = tokens[:usable].reshape(batch_size, -1).T   # (steps, batch)
        self.cursor = 0
        self._resume: Optional[int] = None

    def __len__(self) -> int:
        """Number of (input, target) windows per epoch."""
        return max(0, (self.data.shape[0] - 1) // self.seq_len)

    def batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        self.cursor, self._resume = self._resume or 0, None
        steps = self.data.shape[0]
        for start in range(self.cursor * self.seq_len, steps - 1, self.seq_len):
            self.cursor += 1
            end = min(start + self.seq_len, steps - 1)
            inputs = self.data[start:end]
            targets = self.data[start + 1:end + 1]
            yield inputs, targets

    def restore_pass(self, cursor: int, resume: bool) -> None:
        """With ``resume``, the next :meth:`batches` continues after
        ``cursor`` windows."""
        self.cursor = int(cursor)
        self._resume = self.cursor if resume else None

    def shard(self, rank: int, world_size: int) -> "LanguageModelBatcher":
        """Restrict the batch dimension to this worker's share (data parallelism)."""
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world size {world_size}")
        columns = np.array_split(np.arange(self.batch_size), world_size)[rank]
        if len(columns) == 0:
            raise ValueError("more workers than batch columns; decrease world size")
        sharded = LanguageModelBatcher.__new__(LanguageModelBatcher)
        sharded.batch_size = len(columns)
        sharded.seq_len = self.seq_len
        sharded.data = self.data[:, columns]
        sharded.cursor = 0
        sharded._resume = None
        return sharded
