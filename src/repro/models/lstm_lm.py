"""LSTM language model for Penn-Treebank-style data.

The paper's LSTM-PTB entry (66,034,000 parameters, perplexity metric) matches
the "large" PTB configuration: a 2-layer LSTM with 1500 hidden units, 1500-d
embeddings and a 10,000-word vocabulary.  The model predicts the next token at
every position; perplexity is exp(mean cross-entropy).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import nn
from repro.tensor import Tensor, functional as F
from repro.utils.rng import new_rng


class LSTMLanguageModel(nn.Module):
    """Embedding → multi-layer LSTM → linear decoder over the vocabulary.

    Parameters
    ----------
    vocab_size:
        Vocabulary size ``V``.
    embedding_dim:
        Token embedding dimensionality.
    hidden_size:
        LSTM hidden state size.
    num_layers:
        Number of stacked LSTM layers.
    """

    def __init__(self, vocab_size: int = 10000, embedding_dim: int = 1500,
                 hidden_size: int = 1500, num_layers: int = 2, seed: int = 0):
        super().__init__()
        rng = new_rng("lstm_lm", vocab_size, hidden_size, seed=seed)
        self.embedding = nn.Embedding(vocab_size, embedding_dim,
                                      rng=np.random.default_rng(rng.integers(0, 2**63 - 1)))
        self.lstm = nn.LSTM(embedding_dim, hidden_size, num_layers,
                            rng=np.random.default_rng(rng.integers(0, 2**63 - 1)))
        self.decoder = nn.Linear(hidden_size, vocab_size,
                                 rng=np.random.default_rng(rng.integers(0, 2**63 - 1)))
        self.vocab_size = int(vocab_size)
        self.hidden_size = int(hidden_size)
        self.num_layers = int(num_layers)

    def forward_batched(self, tokens: np.ndarray,
                        state: Optional[List[Tuple[Tensor, Tensor]]] = None,
                        targets: Optional[np.ndarray] = None, *, stack
                        ) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        """Score next-token logits, or the loss, for all replicas at once.

        ``tokens`` is the stacked per-replica batch ``(P, T, N)``; parameters
        come from ``stack``'s ``(P, ...)`` views.  Without ``targets`` it
        returns logits ``(P, T*N, V)``; with ``targets``, the next tokens
        (``P·T·N`` of them, e.g. ``(P, T, N)``), the decoder and the mean
        cross-entropy run as one
        :func:`~repro.tensor.functional.lm_head` node and it returns the
        ``(P,)`` replica losses.  Either comes with the stacked LSTM state
        for truncated BPTT.  The per-replica call ``model(tokens, state)`` /
        ``model(tokens, state, targets)`` on ``(T, N)`` tokens is the
        ``P = 1`` case.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 3:
            raise ValueError("stacked tokens must have shape (world_size, seq_len, batch)")
        embedded = self.embedding.forward_batched(tokens, stack)    # (P, T, N, D)
        output, state = self.lstm.forward_batched(embedded, state, stack=stack)
        flat = output.reshape(output.shape[0], -1, self.hidden_size)  # (P, T*N, H)
        if targets is None:
            return self.decoder.forward_batched(flat, stack), state   # (P, T*N, V)
        loss = F.lm_head(flat, stack.tensor(self.decoder.weight),
                         stack.tensor(self.decoder.bias), targets)
        return loss, state

    def initial_state_batched(self, world_size: int, batch_size: int
                              ) -> List[Tuple[Tensor, Tensor]]:
        """Zero per-layer LSTM state for a stacked ``(P, N)`` replica batch."""
        return self.lstm.initial_state_batched(world_size, batch_size)

    def detach_state(self, state: List[Tuple[Tensor, Tensor]]) -> List[Tuple[Tensor, Tensor]]:
        """Detach the carried state between truncated-BPTT windows."""
        return self.lstm.detach_state(state)

    @staticmethod
    def perplexity(mean_cross_entropy: float) -> float:
        """Perplexity from a mean cross-entropy in nats."""
        return float(np.exp(min(30.0, mean_cross_entropy)))
