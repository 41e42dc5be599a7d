"""LSTM layers for the LSTM-PTB language model.

The implementation follows the standard LSTM equations with a single fused
weight matrix per direction (input-to-hidden and hidden-to-hidden), matching
what ``torch.nn.LSTM`` computes.  Each layer runs a whole truncated-BPTT
window as one :func:`~repro.tensor.functional.lstm` node with a hand-derived
backward; a single step is that op's ``T = 1`` call.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F, init
from repro.utils.rng import new_rng


class LSTMCell(Module):
    """A single LSTM step: (x_t, h_{t-1}, c_{t-1}) → (h_t, c_t)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        rng = rng if rng is not None else new_rng("lstm_cell", input_size, hidden_size)
        bound = 1.0 / np.sqrt(hidden_size)
        # Fused gate weights: [input, forget, cell, output] stacked on the output axis.
        self.weight_ih = Parameter(init.uniform((4 * hidden_size, input_size), rng, bound))
        self.weight_hh = Parameter(init.uniform((4 * hidden_size, hidden_size), rng, bound))
        self.bias_ih = Parameter(init.zeros((4 * hidden_size,)))
        self.bias_hh = Parameter(init.zeros((4 * hidden_size,)))

    def window(self, x: Tensor, state: Tuple[Tensor, Tensor], stack
               ) -> Tuple[Tensor, Tensor, Tensor]:
        """This layer over a stacked ``(P, T, N, D)`` window with ``stack``'s
        parameter views; returns ``(out, h_T, c_T)``."""
        params = (self.weight_ih, self.weight_hh, self.bias_ih, self.bias_hh)
        return F.lstm(x, *(stack.tensor(p) for p in params), *state)

    def forward_batched(self, x: Tensor, state: Tuple[Tensor, Tensor], stack
                        ) -> Tuple[Tensor, Tensor]:
        """One LSTM step for all replicas: ``(P, N, D)`` input, stacked weights."""
        _, h, c = self.window(x.reshape(x.shape[0], 1, *x.shape[1:]), state, stack)
        return h, c

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        """Zero hidden and cell state for a batch."""
        zeros = np.zeros((batch_size, self.hidden_size), dtype=np.float32)
        return Tensor(zeros.copy()), Tensor(zeros.copy())

    def initial_state_batched(self, world_size: int, batch_size: int
                              ) -> Tuple[Tensor, Tensor]:
        """Zero state for all replicas at once: two ``(P, N, H)`` tensors."""
        zeros = np.zeros((world_size, batch_size, self.hidden_size), dtype=np.float32)
        return Tensor(zeros.copy()), Tensor(zeros.copy())


class LSTM(Module):
    """Multi-layer LSTM over a (T, N, D) input sequence.

    Returns the hidden states of the top layer, shape (T, N, H), and the
    final (h, c) state per layer.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.num_layers = int(num_layers)
        rng = rng if rng is not None else new_rng("lstm", input_size, hidden_size, num_layers)
        self.cells: List[LSTMCell] = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size, hidden_size,
                            rng=np.random.default_rng(rng.integers(0, 2**63 - 1)))
            self.add_module(f"cell{layer}", cell)
            self.cells.append(cell)

    def forward_batched(self, x: Tensor,
                        state: Optional[List[Tuple[Tensor, Tensor]]] = None, *, stack
                        ) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        """Multi-layer LSTM over a stacked ``(P, T, N, D)`` replica batch.

        Each layer runs one whole window with ``stack``'s ``(P, *shape)``
        parameter views and feeds the next, so every replica slice is
        bit-identical to running that replica alone.  ``state`` defaults to
        zeros.  Returns the top layer's hidden states ``(P, T, N, H)`` and the
        per-layer final states.
        """
        if state is None:
            state = self.initial_state_batched(x.shape[0], x.shape[2])
        if len(state) != self.num_layers:
            raise ValueError(f"expected {self.num_layers} layer states, got {len(state)}")
        new_state = []
        for cell, layer_state in zip(self.cells, state):
            x, h, c = cell.window(x, layer_state, stack)
            new_state.append((h, c))
        return x, new_state

    def initial_state_batched(self, world_size: int, batch_size: int
                              ) -> List[Tuple[Tensor, Tensor]]:
        """Zero per-layer state for all replicas at once."""
        return [cell.initial_state_batched(world_size, batch_size) for cell in self.cells]

    def detach_state(self, state: List[Tuple[Tensor, Tensor]]) -> List[Tuple[Tensor, Tensor]]:
        """Truncate backpropagation-through-time by detaching carried state."""
        return [(h.detach(), c.detach()) for h, c in state]
