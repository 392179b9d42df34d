import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agifl.data import (Dataset, IMAGES_MAGIC, LABELS_MAGIC, load_idx,
                        partition, synth_blobs)


def write_idx_pair(tmp_path, pixels, labels, image_magic=IMAGES_MAGIC,
                   label_magic=LABELS_MAGIC, label_count=None, truncate=0):
    """Write an IDX image/label file pair; knobs exist to corrupt them."""
    n, rows, cols = pixels.shape
    images_path = tmp_path / "images-idx3-ubyte"
    payload = pixels.astype(np.uint8).tobytes()
    if truncate:
        payload = payload[:-truncate]
    images_path.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) + payload)

    labels_path = tmp_path / "labels-idx1-ubyte"
    label_count = len(labels) if label_count is None else label_count
    labels_path.write_bytes(struct.pack(">II", label_magic, label_count)
                            + bytes(labels[:label_count]))
    return images_path, labels_path


def sharded_reference(labels, num_users, shards_per_user, seed):
    """The label-sharded scheme one user at a time: the last of the
    num_users * shards_per_user label-sorted cuts absorbs the remainder."""
    num_shards = num_users * shards_per_user
    size = len(labels) // num_shards
    order = np.argsort(labels, kind="stable")
    cuts = [order[i * size:(i + 1) * size] for i in range(num_shards - 1)]
    cuts.append(order[(num_shards - 1) * size:])
    deal = np.random.default_rng(seed).permutation(num_shards)
    return [np.sort(np.concatenate([cuts[i] for i in
                                    deal[u * shards_per_user:(u + 1) * shards_per_user]]))
            for u in range(num_users)]


def iid_reference(num_samples, num_users, seed):
    """The IID scheme one user at a time: consecutive slices of one
    permutation, the first (n mod num_users) users one sample larger."""
    order = np.random.default_rng(seed).permutation(num_samples)
    base, extra = divmod(num_samples, num_users)
    shards, start = [], 0
    for u in range(num_users):
        size = base + (1 if u < extra else 0)
        shards.append(np.sort(order[start:start + size]))
        start += size
    return shards


def labels_only_dataset(labels):
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(features=np.zeros((len(labels), 1)), labels=labels)


class TestIdxLoader:
    def test_loads_and_scales(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
        labels = [3, 1, 4, 1]
        data = load_idx(*write_idx_pair(tmp_path, pixels, labels))
        assert data.num_samples == 4
        assert data.input_dim == 784
        assert data.bits_per_sample == (784 + 1) * 8  # 6280
        assert np.array_equal(data.labels, labels)
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0
        assert data.features[0, 0] == pixels[0, 0, 0] / 255.0

    def test_bad_image_magic(self, tmp_path):
        pixels = np.zeros((2, 4, 4), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, [0, 1], image_magic=0x00000802)
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(*paths)

    def test_bad_label_magic(self, tmp_path):
        pixels = np.zeros((2, 4, 4), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, [0, 1], label_magic=0x00000803)
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(*paths)

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((10, 4, 4), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, list(range(10)), label_count=9)
        with pytest.raises(ValueError, match="count mismatch"):
            load_idx(*paths)

    def test_truncated_images(self, tmp_path):
        pixels = np.zeros((3, 4, 4), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, [0, 1, 2], truncate=5)
        with pytest.raises(ValueError, match="truncated"):
            load_idx(*paths)


class TestSynthBlobs:
    def test_tiny_spread_is_nearest_center_separable(self):
        data = synth_blobs(num_classes=2, samples_per_class=50, input_dim=2,
                           spread=1e-4, seed=1)
        # recover the two centers from the labeled blocks, then check every
        # sample sits closest to its own class center
        centers = np.array([data.features[data.labels == c].mean(axis=0)
                            for c in range(2)])
        dists = np.linalg.norm(data.features[:, None, :] - centers[None], axis=2)
        assert np.array_equal(dists.argmin(axis=1), data.labels)

    def test_deterministic(self):
        a = synth_blobs(3, 10, 4, spread=0.2, seed=9)
        b = synth_blobs(3, 10, 4, spread=0.2, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_counts_and_labels(self):
        data = synth_blobs(3, 10, 2, spread=0.1, seed=0)
        assert data.num_samples == 30
        assert [int((data.labels == c).sum()) for c in range(3)] == [10, 10, 10]

    def test_range_and_bits(self):
        data = synth_blobs(4, 25, 3, spread=0.5, seed=2)
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0
        assert data.bits_per_sample == (3 + 1) * 8

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            synth_blobs(0, 10, 2, spread=0.1, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(2, 10, 2, spread=0.0, seed=0)


class TestPartition:
    def test_iid_equal_split(self):
        data = labels_only_dataset(np.arange(60000) % 10)
        shards = partition(data, 100, scheme="iid", seed=4)
        assert len(shards) == 100
        assert all(len(s) == 600 for s in shards)

    @pytest.mark.parametrize("scheme,kwargs", [
        ("iid", {}),
        ("sharded", {"shards_per_user": 2}),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partition_law(self, scheme, kwargs, seed):
        data = labels_only_dataset(np.arange(230) % 5)
        shards = partition(data, 10, scheme=scheme, seed=seed, **kwargs)
        merged = np.concatenate(shards)
        assert np.array_equal(np.sort(merged), np.arange(230))

    def test_iid_sizes_differ_by_at_most_one(self):
        data = labels_only_dataset(np.arange(103) % 3)
        sizes = [len(s) for s in partition(data, 10, scheme="iid", seed=0)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103

    def test_sharded_two_labels_per_user_when_aligned(self):
        # 4 classes x 300 samples; 12 shards of 100 align with class blocks
        labels = np.repeat(np.arange(4), 300)
        data = labels_only_dataset(labels)
        for seed in range(5):
            shards = partition(data, 6, scheme="sharded", shards_per_user=2,
                               seed=seed)
            for shard in shards:
                assert len(np.unique(labels[shard])) <= 2

    def test_sharded_remainder_absorbed(self):
        data = labels_only_dataset(np.arange(101) % 4)
        shards = partition(data, 5, scheme="sharded", shards_per_user=2, seed=3)
        merged = np.concatenate(shards)
        assert np.array_equal(np.sort(merged), np.arange(101))

    @settings(max_examples=200, deadline=None)
    @given(num_users=st.integers(1, 40), shards_per_user=st.integers(1, 4),
           extra=st.integers(0, 60), classes=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_sharded_matches_per_user_reference(self, num_users, shards_per_user, extra,
                                                classes, seed, data):
        n = num_users * shards_per_user + extra  # extra leaves a remainder or not
        labels = np.array(data.draw(st.lists(st.integers(0, classes - 1),
                                             min_size=n, max_size=n)), dtype=np.int64)
        shards = partition(labels_only_dataset(labels), num_users, scheme="sharded",
                           shards_per_user=shards_per_user, seed=seed)
        expected = sharded_reference(labels, num_users, shards_per_user, seed)
        assert len(shards) == num_users
        for shard, want in zip(shards, expected):
            assert shard.dtype == want.dtype
            assert np.array_equal(shard, want)

    @settings(max_examples=200, deadline=None)
    @given(num_samples=st.integers(1, 300), divisible=st.booleans(),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_iid_matches_per_user_reference(self, num_samples, divisible, seed, data):
        # n mod U == 0: equal counts; otherwise the first users get one more
        candidates = [u for u in range(1, num_samples + 1)
                      if (num_samples % u == 0) == divisible]
        assume(candidates)
        num_users = data.draw(st.sampled_from(candidates))
        shards = partition(labels_only_dataset(np.zeros(num_samples)), num_users,
                           scheme="iid", seed=seed)
        expected = iid_reference(num_samples, num_users, seed)
        assert len(shards) == num_users
        for shard, want in zip(shards, expected):
            assert shard.dtype == want.dtype
            assert np.array_equal(shard, want)

    def test_too_many_users(self):
        data = labels_only_dataset([0, 1, 0])
        with pytest.raises(ValueError, match="exceeds"):
            partition(data, 4, scheme="iid")

    def test_unknown_scheme(self):
        data = labels_only_dataset([0, 1])
        with pytest.raises(ValueError, match="unknown partition scheme"):
            partition(data, 1, scheme="dirichlet")
