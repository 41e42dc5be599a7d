"""Dataset abstractions."""

from __future__ import annotations

from typing import Tuple

import numpy as np


class Dataset:
    """Minimal map-style dataset interface."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        """One example for an integer ``index``; for an integer index array,
        the stacked batch ``(inputs[index], targets[index])`` in that order —
        :class:`~repro.data.dataloader.DataLoader` gathers each batch with one
        such call."""
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dataset backed by in-memory arrays of inputs and targets.

    Parameters
    ----------
    inputs:
        Array of shape ``(N, ...)``.
    targets:
        Array of shape ``(N, ...)`` (integer class labels for classification).
    """

    def __init__(self, inputs: np.ndarray, targets: np.ndarray):
        inputs = np.asarray(inputs)
        targets = np.asarray(targets)
        if len(inputs) != len(targets):
            raise ValueError(f"inputs ({len(inputs)}) and targets ({len(targets)}) "
                             "must have the same length")
        self.inputs = inputs
        self.targets = targets

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[index], self.targets[index]

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """A new dataset restricted to ``indices`` (copies the selection)."""
        indices = np.asarray(indices)
        return ArrayDataset(self.inputs[indices], self.targets[indices])

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return tuple(self.inputs.shape[1:])

    @property
    def num_classes(self) -> int:
        """Number of distinct integer labels (classification datasets)."""
        if not np.issubdtype(self.targets.dtype, np.integer):
            raise ValueError("num_classes is only defined for integer targets")
        return int(self.targets.max()) + 1
