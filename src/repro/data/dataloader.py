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
from repro.utils.rng import new_rng


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
        self._epoch = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        self._epoch += 1
        limit = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for start in range(0, limit, self.batch_size):
            yield self.dataset[order[start:start + self.batch_size]]
