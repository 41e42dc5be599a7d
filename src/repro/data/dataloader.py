"""Mini-batch loading and per-worker sharding.

Data-parallel distributed SGD gives every worker a disjoint shard of the
training set and a fraction ``B/P`` of the global mini-batch (the paper's
``M_t^p``).  :func:`shard_dataset` performs the split; :class:`DataLoader`
iterates a shard in a reproducible shuffled order.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.data.datasets import ArrayDataset, Dataset
from repro.utils.rng import generator_state, new_rng, set_generator_state


def shard_dataset(dataset: ArrayDataset, rank: int, world_size: int,
                  shuffle_seed: Optional[int] = 0) -> ArrayDataset:
    """Return the contiguous shard of ``dataset`` owned by ``rank``.

    A fixed permutation (derived from ``shuffle_seed``) is applied before
    splitting so shards are statistically exchangeable; every rank applies the
    same permutation, so shards are disjoint and cover the dataset.
    """
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} out of range for world size {world_size}")
    n = len(dataset)
    if world_size > n:
        raise ValueError(f"cannot shard {n} examples across {world_size} workers")
    indices = np.arange(n)
    if shuffle_seed is not None:
        indices = new_rng("shard_permutation", seed=shuffle_seed).permutation(n)
    shards = np.array_split(indices, world_size)
    return dataset.subset(shards[rank])


class DataLoader:
    """Iterate a dataset in shuffled mini-batches.

    Every ``iter()`` is one pass in a fresh order.  ``pass_words`` (the
    generator state that pass's order was drawn from) and ``cursor`` (the
    batches it has yielded, -1 before the first pass) are what a checkpoint
    saves; :meth:`restore_pass` puts the stream back on them.

    Parameters
    ----------
    dataset:
        The (possibly sharded) dataset.
    batch_size:
        Per-worker batch size.
    shuffle:
        Reshuffle every epoch.
    drop_last:
        Drop the final incomplete batch (keeps batch shapes static).
    rng:
        Generator controlling the shuffle order.
    """

    def __init__(self, dataset: Dataset, batch_size: int, shuffle: bool = True,
                 drop_last: bool = True, rng: Optional[np.random.Generator] = None):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.drop_last = bool(drop_last)
        self.rng = rng if rng is not None else new_rng("dataloader")
        self.pass_words = generator_state(self.rng)
        self.cursor = -1
        self._resume: Optional[Tuple[np.ndarray, int]] = None

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        order, self.cursor = self._resume or (self._draw_order(), 0)
        self._resume = None
        n = len(order)
        limit = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for start in range(self.cursor * self.batch_size, limit, self.batch_size):
            self.cursor += 1
            yield self.dataset[order[start:start + self.batch_size]]

    def _draw_order(self) -> np.ndarray:
        self.pass_words = generator_state(self.rng)
        n = len(self.dataset)
        return self.rng.permutation(n) if self.shuffle else np.arange(n)

    def restore_pass(self, words: np.ndarray, cursor: int, resume: bool) -> None:
        """Set the generator onto ``words`` and redraw that pass's order
        (which leaves it where the saving loader's was); with ``resume`` the
        next ``iter()`` continues the pass after ``cursor`` batches."""
        set_generator_state(self.rng, words)
        self.pass_words = generator_state(self.rng)
        self.cursor, self._resume = int(cursor), None
        if self.cursor >= 0:
            order = self._draw_order()
            self._resume = (order, self.cursor) if resume else None
