"""Datasets and per-user partitioning.

Two corpora are supported: MNIST-style IDX files and synthetic Gaussian
blobs. A dataset holds features and labels only; its bits per sample, used
by the compute-time model, derives from them: raw bytes times 8, label byte
included, so a 784-pixel image costs (784 + 1) * 8 = 6280 bits.

Partitioning produces one sorted index array per user; the arrays are
pairwise disjoint and cover the dataset exactly. The IID scheme is a random
near-equal split; the label-sharded scheme sorts by label, cuts the order
into num_users * shards_per_user contiguous shards and deals
shards_per_user of them to each user, so each user sees few classes.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .seeding import child_seed

__all__ = [
    "Dataset",
    "load_idx",
    "synth_blobs",
    "partition",
    "check_partition",
    "IMAGES_MAGIC",
    "LABELS_MAGIC",
]

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Features and labels; every other corpus figure derives from them."""

    features: np.ndarray  # (n, d) float64 in [0, 1]
    labels: np.ndarray  # (n,) int64

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature rows and label count differ")

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def bits_per_sample(self) -> int:
        return (self.input_dim + 1) * 8


def _read_be32(f, path):
    raw = f.read(4)
    if len(raw) != 4:
        raise ValueError(f"truncated file: {path}")
    return struct.unpack(">I", raw)[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair into a Dataset.

    Pixels are scaled to [0, 1] by /255. Raises ValueError on a bad magic
    number, an image/label count mismatch, or a truncated payload.
    """
    with open(images_path, "rb") as f:
        magic = _read_be32(f, images_path)
        if magic != IMAGES_MAGIC:
            raise ValueError(f"bad magic 0x{magic:08x} in {images_path} "
                             f"(expected 0x{IMAGES_MAGIC:08x})")
        count = _read_be32(f, images_path)
        rows = _read_be32(f, images_path)
        cols = _read_be32(f, images_path)
        payload = f.read(count * rows * cols)
        if len(payload) != count * rows * cols:
            raise ValueError(f"truncated file: {images_path}")
        pixels = np.frombuffer(payload, dtype=np.uint8)

    with open(labels_path, "rb") as f:
        magic = _read_be32(f, labels_path)
        if magic != LABELS_MAGIC:
            raise ValueError(f"bad magic 0x{magic:08x} in {labels_path} "
                             f"(expected 0x{LABELS_MAGIC:08x})")
        label_count = _read_be32(f, labels_path)
        raw = f.read(label_count)
        if len(raw) != label_count:
            raise ValueError(f"truncated file: {labels_path}")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if label_count != count:
        raise ValueError(
            f"count mismatch: {count} images vs {label_count} labels")

    features = pixels.astype(np.float64).reshape(count, rows * cols) / 255.0
    return Dataset(features=features, labels=labels)


def _blob_centers(num_classes: int, input_dim: int) -> np.ndarray:
    """Distinct per-class centers inside the unit cube.

    Centers depend only on the geometry (class count, dimension), never on
    the dataset seed, and differ across all feature dimensions so the class
    signal is distributed rather than confined to a plane. A minimum
    separation is enforced by redrawing close candidates.
    """
    if input_dim == 1:
        return ((np.arange(num_classes) + 1) / (num_classes + 1)).reshape(-1, 1)
    gen = np.random.default_rng(child_seed("blob-centers", num_classes, input_dim))
    centers = np.empty((num_classes, input_dim))
    for c in range(num_classes):
        cand = gen.uniform(0.25, 0.75, size=input_dim)
        for _ in range(200):
            if c == 0 or np.linalg.norm(centers[:c] - cand, axis=1).min() >= 0.1:
                break
            cand = gen.uniform(0.25, 0.75, size=input_dim)
        centers[c] = cand
    return centers


def synth_blobs(num_classes: int, samples_per_class: int, input_dim: int,
                spread: float, seed: int) -> Dataset:
    """Gaussian blob dataset around fixed per-class centers, clipped to
    [0, 1]. Deterministic for a fixed seed."""
    if num_classes < 1 or samples_per_class < 1 or input_dim < 1:
        raise ValueError("counts must be >= 1")
    if spread <= 0:
        raise ValueError("spread must be positive")
    gen = np.random.default_rng(seed)
    centers = _blob_centers(num_classes, input_dim)
    features = np.empty((num_classes * samples_per_class, input_dim))
    labels = np.empty(num_classes * samples_per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * samples_per_class, (c + 1) * samples_per_class)
        features[block] = centers[c] + gen.normal(0.0, spread,
                                                  size=(samples_per_class, input_dim))
        labels[block] = c
    np.clip(features, 0.0, 1.0, out=features)
    return Dataset(features=features, labels=labels)


def check_partition(num_samples: int, num_users: int, scheme: str,
                    shards_per_user: int) -> None:
    """Raise ValueError unless `partition` can split the samples this way."""
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    if num_users > num_samples:
        raise ValueError(f"num_users ({num_users}) exceeds sample count ({num_samples})")
    if scheme == "sharded":
        if shards_per_user < 1:
            raise ValueError("shards_per_user must be >= 1")
        if num_samples < num_users * shards_per_user:
            raise ValueError("dataset too small for the requested sharding "
                             f"({num_samples} samples for {num_users} users x "
                             f"{shards_per_user} shards)")
    elif scheme != "iid":
        raise ValueError(f"unknown partition scheme {scheme!r}")


def partition(data: Dataset, num_users: int, scheme: str = "iid",
              shards_per_user: int = 2, seed: int = 0) -> list[np.ndarray]:
    """Split a dataset's indices across users: entry u is user u's sorted
    sample indices.

    "iid": random near-equal split; the first (n mod num_users) users get
    one extra sample. "sharded": label-sorted indices cut into
    num_users * shards_per_user contiguous shards (the last shard absorbs
    any remainder), dealt shards_per_user apiece at random.
    """
    n = data.num_samples
    check_partition(n, num_users, scheme, shards_per_user)
    gen = np.random.default_rng(seed)

    if scheme == "iid":
        order = gen.permutation(n)
        base, extra = divmod(n, num_users)
        cut = extra * (base + 1)
        return (list(np.sort(order[:cut].reshape(extra, base + 1), axis=1))
                + list(np.sort(order[cut:].reshape(num_users - extra, base), axis=1)))

    num_shards = num_users * shards_per_user
    shard_size = n // num_shards
    order = np.argsort(data.labels, kind="stable")
    deal = gen.permutation(num_shards).reshape(num_users, shards_per_user)
    cuts = order[:num_shards * shard_size].reshape(num_shards, shard_size)
    dealt = np.sort(cuts[deal].reshape(num_users, -1), axis=1)
    indices = list(dealt)
    remainder = order[num_shards * shard_size:]
    if remainder.size:  # it belongs to the last shard
        last = int(np.flatnonzero(deal == num_shards - 1)[0]) // shards_per_user
        indices[last] = np.sort(np.concatenate([dealt[last], remainder]))
    return indices
