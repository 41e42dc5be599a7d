"""Tests for synthetic datasets, data loading and sharding."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    LanguageModelBatcher,
    SyntheticTextConfig,
    get_dataset,
    make_synthetic_cifar10,
    make_synthetic_mnist,
    make_synthetic_ptb,
    shard_dataset,
)


class TestArrayDataset:
    def test_len_and_getitem(self, rng):
        ds = ArrayDataset(rng.standard_normal((10, 3)), np.arange(10))
        assert len(ds) == 10
        x, y = ds[4]
        assert x.shape == (3,)
        assert y == 4

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.standard_normal((5, 2)), np.arange(4))

    def test_subset(self, rng):
        ds = ArrayDataset(rng.standard_normal((10, 2)), np.arange(10))
        sub = ds.subset(np.array([1, 3, 5]))
        assert len(sub) == 3
        assert sub[1][1] == 3

    def test_num_classes(self):
        ds = ArrayDataset(np.zeros((6, 1)), np.array([0, 1, 2, 2, 1, 0]))
        assert ds.num_classes == 3

    def test_num_classes_float_targets_raises(self):
        ds = ArrayDataset(np.zeros((3, 1)), np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError):
            _ = ds.num_classes


class TestSyntheticImages:
    def test_mnist_shapes(self):
        train, test = make_synthetic_mnist(num_train=64, num_test=16, image_size=28)
        assert train.inputs.shape == (64, 1, 28, 28)
        assert test.inputs.shape == (16, 1, 28, 28)
        assert train.targets.dtype == np.int64
        assert set(np.unique(train.targets)).issubset(set(range(10)))

    def test_cifar_shapes(self):
        train, _ = make_synthetic_cifar10(num_train=32, num_test=8, image_size=32)
        assert train.inputs.shape == (32, 3, 32, 32)

    def test_deterministic_given_seed(self):
        a, _ = make_synthetic_mnist(num_train=16, num_test=4, seed=7)
        b, _ = make_synthetic_mnist(num_train=16, num_test=4, seed=7)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_different_seed_differs(self):
        a, _ = make_synthetic_mnist(num_train=16, num_test=4, seed=1)
        b, _ = make_synthetic_mnist(num_train=16, num_test=4, seed=2)
        assert not np.allclose(a.inputs, b.inputs)

    def test_train_and_test_share_class_structure(self):
        # A nearest-prototype classifier fit on train prototypes should beat
        # chance on the test split, proving both splits share prototypes.
        train, test = make_synthetic_mnist(num_train=512, num_test=256, image_size=8,
                                           noise_std=0.3)
        prototypes = np.stack([train.inputs[train.targets == c].mean(axis=0)
                               for c in range(10)])
        flat_test = test.inputs.reshape(len(test), -1)
        flat_proto = prototypes.reshape(10, -1)
        distances = ((flat_test[:, None, :] - flat_proto[None, :, :]) ** 2).sum(axis=2)
        accuracy = (distances.argmin(axis=1) == test.targets).mean()
        assert accuracy > 0.5


class TestSyntheticText:
    def test_stream_properties(self):
        train, test, vocab = make_synthetic_ptb(SyntheticTextConfig(
            vocab_size=50, train_tokens=2000, test_tokens=500, seed=0))
        assert vocab == 50
        assert train.shape == (2000,)
        assert test.shape == (500,)
        assert train.min() >= 0 and train.max() < 50

    def test_deterministic(self):
        cfg = SyntheticTextConfig(vocab_size=30, train_tokens=500, test_tokens=100, seed=3)
        a = make_synthetic_ptb(cfg)[0]
        b = make_synthetic_ptb(cfg)[0]
        np.testing.assert_array_equal(a, b)

    def test_markov_structure_is_learnable(self):
        # The bigram distribution should be far from uniform: knowing the
        # current token should substantially restrict the next token.
        train, _, vocab = make_synthetic_ptb(SyntheticTextConfig(
            vocab_size=40, train_tokens=20_000, test_tokens=100, branching=4, seed=0))
        successors = {}
        for a, b in zip(train[:-1], train[1:]):
            successors.setdefault(int(a), set()).add(int(b))
        mean_branching = np.mean([len(s) for s in successors.values()])
        assert mean_branching <= 8  # far below the vocabulary size of 40


class TestLanguageModelBatcher:
    def test_batch_shapes_and_shift(self):
        tokens = np.arange(100)
        batcher = LanguageModelBatcher(tokens, batch_size=4, seq_len=5)
        inputs, targets = next(batcher.batches())
        assert inputs.shape == (5, 4)
        assert targets.shape == (5, 4)
        np.testing.assert_array_equal(targets[:-1], inputs[1:])

    def test_len_counts_windows(self):
        batcher = LanguageModelBatcher(np.arange(101), batch_size=4, seq_len=5)
        assert len(batcher) == (101 // 4 - 1) // 5

    def test_too_short_stream_raises(self):
        with pytest.raises(ValueError):
            LanguageModelBatcher(np.arange(5), batch_size=4, seq_len=5)

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            LanguageModelBatcher(np.arange(100), batch_size=0, seq_len=5)

    def test_shard_partitions_columns(self):
        batcher = LanguageModelBatcher(np.arange(400), batch_size=8, seq_len=5)
        shard0 = batcher.shard(0, 2)
        shard1 = batcher.shard(1, 2)
        assert shard0.batch_size == 4 and shard1.batch_size == 4
        full = batcher.data
        np.testing.assert_array_equal(np.hstack([shard0.data, shard1.data]), full)

    def test_shard_bad_rank(self):
        batcher = LanguageModelBatcher(np.arange(100), batch_size=4, seq_len=5)
        with pytest.raises(ValueError):
            batcher.shard(3, 2)

    def test_shard_more_workers_than_columns(self):
        batcher = LanguageModelBatcher(np.arange(100), batch_size=2, seq_len=5)
        with pytest.raises(ValueError):
            batcher.shard(2, 3)


class TestShardingAndLoader:
    def test_shards_are_disjoint_and_cover(self):
        ds = ArrayDataset(np.arange(100).reshape(100, 1), np.arange(100))
        shards = [shard_dataset(ds, r, 4) for r in range(4)]
        seen = np.concatenate([s.targets for s in shards])
        assert len(seen) == 100
        assert len(np.unique(seen)) == 100

    def test_shard_rank_out_of_range(self):
        ds = ArrayDataset(np.zeros((10, 1)), np.arange(10))
        with pytest.raises(ValueError):
            shard_dataset(ds, 4, 4)

    def test_more_workers_than_examples_raises(self):
        ds = ArrayDataset(np.zeros((2, 1)), np.arange(2))
        with pytest.raises(ValueError):
            shard_dataset(ds, 0, 5)

    def test_dataloader_batch_shapes(self, rng):
        ds = ArrayDataset(rng.standard_normal((50, 3)), np.arange(50) % 5)
        loader = DataLoader(ds, batch_size=8, rng=rng)
        xs, ys = next(iter(loader))
        assert xs.shape == (8, 3)
        assert ys.shape == (8,)
        assert len(loader) == 6

    def test_dataloader_drop_last_false(self, rng):
        ds = ArrayDataset(rng.standard_normal((10, 2)), np.arange(10))
        loader = DataLoader(ds, batch_size=4, drop_last=False, shuffle=False, rng=rng)
        batches = list(loader)
        assert len(batches) == 3
        assert batches[-1][0].shape[0] == 2

    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("drop_last", [True, False])
    def test_dataloader_gathers_like_the_per_sample_stack(self, drop_last, shuffle):
        # One fancy-index gather per batch reproduces the per-sample
        # __getitem__ + np.stack batches byte for byte: values, dtype, shape
        # and order, over two passes of the shuffle stream.
        rng = np.random.default_rng(3)
        ds = ArrayDataset(rng.standard_normal((23, 1, 3, 2)).astype(np.float32),
                          rng.integers(0, 10, 23).astype(np.int32))
        loader = DataLoader(ds, batch_size=5, shuffle=shuffle, drop_last=drop_last,
                            rng=np.random.default_rng(11))
        order_rng = np.random.default_rng(11)
        limit = 20 if drop_last else 23
        for _ in range(2):
            order = order_rng.permutation(23) if shuffle else np.arange(23)
            expected = []
            for start in range(0, limit, 5):
                xs, ys = zip(*(ds[int(i)] for i in order[start:start + 5]))
                expected.append((np.stack(xs), np.asarray(ys)))
            batches = list(loader)
            assert len(batches) == len(expected) == len(loader)
            for batch, reference in zip(batches, expected):
                for got, want in zip(batch, reference):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes()

    def test_dataloader_shuffle_changes_order_but_not_content(self):
        ds = ArrayDataset(np.arange(20).reshape(20, 1), np.arange(20))
        loader = DataLoader(ds, batch_size=20, shuffle=True,
                            rng=np.random.default_rng(0))
        _, first_epoch = next(iter(loader))
        _, second_epoch = next(iter(loader))
        assert set(first_epoch) == set(range(20))
        assert not np.array_equal(first_epoch, second_epoch)

    def test_dataloader_invalid_batch_size(self):
        ds = ArrayDataset(np.zeros((4, 1)), np.arange(4))
        with pytest.raises(ValueError):
            DataLoader(ds, batch_size=0)


class TestDatasetRegistry:
    def test_image_registry_entries(self):
        for name in ("mnist_tiny", "cifar10_tiny", "cifar10_tiny32"):
            train, test = get_dataset(name, num_train=32, num_test=8)
            assert len(train) == 32 and len(test) == 8

    def test_text_registry_entry(self):
        train, test, vocab = get_dataset("ptb_tiny", num_train=1000, num_test=200)
        assert vocab == 200
        assert len(train) == 1000

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            get_dataset("imagenet")
