"""Per-client dataset partitioning for federated populations.

A federated simulation splits one training set across a logical client
population of size ``N`` (usually ``N ≫ P``, the number of materialized
replica slots).  Each policy maps the dataset to ``N`` disjoint index sets
that together cover it exactly — no sample is dropped or duplicated — and
the split is a pure function of ``(targets, num_clients, seed)`` so client
``c`` owns the same shard on every run, every world size, and every resume.

Policies
--------
``iid``
    The same permutation + contiguous split as
    :func:`repro.data.dataloader.shard_dataset`; with ``N == P`` it is
    bit-identical to the trainer's default per-rank sharding (the basis of
    the fedavg ≡ local_sgd equivalence test).
``dirichlet``
    Label-skew sharding à la Hsu et al.: for every class, client proportions
    are drawn from ``Dirichlet(alpha)`` and the class's samples are split by
    those proportions.  Small ``alpha`` → severe skew.  Clients left empty
    by an extreme draw are topped up deterministically from the largest
    client so the partition stays exact and every client is trainable.
``shards``
    The classic McMahan et al. pathological split: sort by label, cut into
    ``N`` contiguous shards — most clients see only one or two classes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.data.datasets import ArrayDataset
from repro.utils.rng import new_rng

#: Known data-skew policies, in documentation order.
PARTITION_POLICIES = ("iid", "dirichlet", "shards")

#: Keyword arguments each policy accepts (used by spec validation).
_POLICY_KWARGS: Dict[str, Sequence[str]] = {
    "iid": (),
    "dirichlet": ("alpha",),
    "shards": (),
}


def partition_problems(policy: str, kwargs: Dict[str, object]) -> List[str]:
    """Validation problems for a ``(data_skew, data_skew_kwargs)`` pair.

    Shared by ``ClientSpec.problems`` and the CLI so the wording stays in
    one place.  Returns an empty list when the pair is constructible.
    """
    problems: List[str] = []
    if policy not in PARTITION_POLICIES:
        problems.append(f"unknown data_skew {policy!r}; "
                        f"available: {list(PARTITION_POLICIES)}")
        return problems
    known = _POLICY_KWARGS[policy]
    for key in kwargs:
        if key not in known:
            problems.append(f"data_skew {policy!r} does not accept kwarg {key!r} "
                            f"(known kwargs: {list(known)})")
    if policy == "dirichlet":
        alpha = kwargs.get("alpha", 0.5)
        if not isinstance(alpha, (int, float)) or isinstance(alpha, bool) \
                or not float(alpha) > 0:
            problems.append(f"data_skew 'dirichlet' needs alpha > 0, got {alpha!r}")
    return problems


def partition_indices(targets: np.ndarray, num_clients: int,
                      policy: str = "iid", seed: int = 0,
                      **kwargs: object) -> List[np.ndarray]:
    """Split ``range(len(targets))`` into ``num_clients`` disjoint index sets.

    The returned lists cover the dataset exactly, every client receives at
    least one sample, and the result is deterministic per client id: the
    whole partition is a function of ``(targets, num_clients, policy, seed)``
    only, never of world size or sampling history.
    """
    problems = partition_problems(policy, dict(kwargs))
    if problems:
        raise ValueError("; ".join(problems))
    targets = np.asarray(targets).reshape(-1)
    n = len(targets)
    num_clients = int(num_clients)
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if n < num_clients:
        raise ValueError(f"cannot partition {n} examples across "
                         f"{num_clients} clients")
    if policy == "iid":
        # Kept in permutation order (not sorted): shard_dataset serves its
        # shards this way, and the N == P bit-identity depends on it.
        return [shard.astype(np.int64)
                for shard in _partition_iid(n, num_clients, seed)]
    if policy == "dirichlet":
        alpha = float(kwargs.get("alpha", 0.5))
        shards = _partition_dirichlet(targets, num_clients, seed, alpha)
    else:  # shards
        shards = _partition_shards(targets, num_clients)
    shards = _fill_empty_clients(shards)
    return [np.sort(shard).astype(np.int64) for shard in shards]


class ClientShards:
    """Every client's shard as a view of one client-ordered copy.

    The training set is gathered once, in client order: client ``c`` owns
    rows ``offsets[c]:offsets[c + 1]`` of :attr:`inputs` / :attr:`targets`.
    ``shards[c]`` is that slice as an :class:`ArrayDataset` (a view, not a
    copy), and a cohort's batches come out of the two arrays with one fancy
    index over the rows.
    """

    def __init__(self, dataset: ArrayDataset, indices: Sequence[np.ndarray]):
        self.sizes = np.array([len(client) for client in indices], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        order = np.concatenate(indices)
        self.inputs = dataset.inputs[order]
        self.targets = dataset.targets[order]

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, client: int) -> ArrayDataset:
        start, stop = self.offsets[client], self.offsets[client + 1]
        return ArrayDataset(self.inputs[start:stop], self.targets[start:stop])


def partition_clients(dataset: ArrayDataset, num_clients: int,
                      policy: str = "iid", seed: int = 0,
                      **kwargs: object) -> ClientShards:
    """Materialize :func:`partition_indices` as per-client sub-datasets."""
    return ClientShards(dataset, partition_indices(dataset.targets, num_clients,
                                                   policy=policy, seed=seed, **kwargs))


def _partition_iid(n: int, num_clients: int, seed: int) -> List[np.ndarray]:
    # Mirrors shard_dataset(dataset, c, num_clients, shuffle_seed=seed) for
    # every client c, so with num_clients == world_size the shards are
    # bit-identical to the trainer's default per-rank split.
    indices = new_rng("shard_permutation", seed=seed).permutation(n)
    return [np.asarray(s) for s in np.array_split(indices, num_clients)]


def _partition_dirichlet(targets: np.ndarray, num_clients: int, seed: int,
                         alpha: float) -> List[np.ndarray]:
    rng = new_rng("dirichlet_partition", seed=seed)
    buckets: List[List[np.ndarray]] = [[] for _ in range(num_clients)]
    for cls in np.unique(targets):
        idx = np.flatnonzero(targets == cls)
        idx = idx[rng.permutation(len(idx))]
        proportions = rng.dirichlet(np.full(num_clients, alpha))
        counts = _exact_counts(proportions, len(idx))
        cuts = np.cumsum(counts)[:-1]
        for client, piece in enumerate(np.split(idx, cuts)):
            if len(piece):
                buckets[client].append(piece)
    return [np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            for parts in buckets]


def _partition_shards(targets: np.ndarray, num_clients: int) -> List[np.ndarray]:
    # Stable sort keeps the within-class order deterministic.
    order = np.argsort(targets, kind="stable")
    return [np.asarray(s) for s in np.array_split(order, num_clients)]


def _exact_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing exactly to ``total``, proportional to the draw.

    Floor allocation first, then the remainder goes to the largest fractional
    parts (ties broken by client id) — fully deterministic.
    """
    scaled = proportions * total
    counts = np.floor(scaled).astype(np.int64)
    remainder = int(total - counts.sum())
    if remainder:
        fractional = scaled - counts
        for client in np.lexsort((np.arange(len(counts)), -fractional))[:remainder]:
            counts[client] += 1
    return counts


def _fill_empty_clients(shards: List[np.ndarray]) -> List[np.ndarray]:
    """Move samples from the largest client to any empty ones.

    Extreme Dirichlet draws can starve a client; an empty shard would make
    the client untrainable, so each empty client deterministically takes one
    sample from whichever client currently holds the most (ties broken by
    the lower client id).
    """
    shards = [np.asarray(s, dtype=np.int64) for s in shards]
    for client, shard in enumerate(shards):
        if len(shard):
            continue
        sizes = np.array([len(s) for s in shards])
        donor = int(np.argmax(sizes))  # argmax takes the first (lowest id) tie
        if sizes[donor] <= 1:
            raise ValueError("cannot repair empty client shards: no client "
                             "has more than one sample to donate")
        shards[client] = shards[donor][-1:]
        shards[donor] = shards[donor][:-1]
    return shards
