"""Datasets and per-user partitioning.

Two corpora are supported: MNIST-style IDX files and synthetic Gaussian
blobs. A dataset holds only its labels and its design matrix, the one
owner of the bias column: each row is a sample's d features, then a 1, set
once at load, so the models never append the column per call; `features`
is the view of its first d columns. The bits per sample, used by the
compute-time model, derive from them: raw bytes times 8, label byte
included, so a 784-pixel image costs (784 + 1) * 8 = 6280 bits.

Partitioning produces one CSR index pair: user u's sorted shard is
`indices[offsets[u]:offsets[u + 1]]`; the shards are disjoint and cover the
dataset. The IID scheme is a random near-equal split; the label-sharded
scheme sorts by label, cuts the order into num_users * shards_per_user
contiguous shards and deals shards_per_user of them to each user, so each
user sees few classes.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .seeding import child_seed

__all__ = [
    "Dataset",
    "load_idx",
    "synth_blobs",
    "partition",
    "PARTITION_SCHEMES",
    "IMAGES_MAGIC",
    "LABELS_MAGIC",
]

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
PARTITION_SCHEMES = ("iid", "sharded")


@dataclass
class Dataset:
    """Design matrix and labels; every other corpus figure derives from them."""

    design: np.ndarray  # (n, d + 1) float64: features in [0, 1], then a ones column
    labels: np.ndarray  # (n,) int64

    def __post_init__(self):
        if self.design.shape[0] != self.labels.shape[0]:
            raise ValueError("feature rows and label count differ")
        if self.design.ndim != 2 or not (self.design[:, -1] == 1.0).all():
            raise ValueError("the design matrix must end in a ones column")

    @property
    def features(self) -> np.ndarray:
        return self.design[:, :-1]

    @property
    def num_samples(self) -> int:
        return self.design.shape[0]

    @property
    def input_dim(self) -> int:
        return self.design.shape[1] - 1

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def bits_per_sample(self) -> int:
        return (self.input_dim + 1) * 8


def _read_idx(path, magic: int, num_dims: int):
    """The dimensions and the uint8 payload of an IDX file, checked."""
    with open(path, "rb") as f:
        head = f.read(4 * (1 + num_dims))
        if len(head) != 4 * (1 + num_dims):
            raise ValueError(f"truncated file: {path}")
        found, *dims = struct.unpack(f">{1 + num_dims}I", head)
        if found != magic:
            raise ValueError(f"bad magic 0x{found:08x} in {path} (expected 0x{magic:08x})")
        payload = f.read(math.prod(dims))
    if len(payload) != math.prod(dims):
        raise ValueError(f"truncated file: {path}")
    return dims, np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair into a Dataset.

    Pixels are scaled to [0, 1] by /255. Raises ValueError on a bad magic
    number, an image/label count mismatch, or a truncated file.
    """
    (count, rows, cols), pixels = _read_idx(images_path, IMAGES_MAGIC, 3)
    (label_count,), labels = _read_idx(labels_path, LABELS_MAGIC, 1)
    if label_count != count:
        raise ValueError(
            f"count mismatch: {count} images vs {label_count} labels")

    design = np.ones((count, rows * cols + 1))
    np.divide(pixels.reshape(count, rows * cols), 255.0, out=design[:, :-1])
    return Dataset(design=design, labels=labels.astype(np.int64))


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
    design = np.ones((num_classes * samples_per_class, input_dim + 1))
    features = design[:, :-1]
    labels = np.empty(num_classes * samples_per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * samples_per_class, (c + 1) * samples_per_class)
        features[block] = centers[c] + gen.normal(0.0, spread,
                                                  size=(samples_per_class, input_dim))
        labels[block] = c
    np.clip(features, 0.0, 1.0, out=features)
    return Dataset(design=design, labels=labels)


def partition(data: Dataset, num_users: int, scheme: str = "iid",
              shards_per_user: int = 2, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Split a dataset's indices across users: the CSR pair `(indices,
    offsets)` of the module docstring, with shard sizes `np.diff(offsets)`.

    "iid": random near-equal split; the first (n mod num_users) users get
    one extra sample. "sharded": label-sorted indices cut into
    num_users * shards_per_user contiguous shards (the last shard absorbs
    any remainder), dealt shards_per_user apiece at random. Raises
    ValueError unless the samples can be split this way.
    """
    n = data.num_samples
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    if num_users > n:
        raise ValueError(f"num_users ({num_users}) exceeds sample count ({n})")
    if scheme not in PARTITION_SCHEMES:
        raise ValueError(f"unknown partition scheme {scheme!r}")
    gen = np.random.default_rng(seed)
    users = np.arange(num_users + 1)

    if scheme == "iid":
        indices = gen.permutation(n)
        base, extra = divmod(n, num_users)
        cut = extra * (base + 1)
        indices[:cut].reshape(extra, base + 1).sort(axis=1)
        indices[cut:].reshape(num_users - extra, base).sort(axis=1)
        return indices, users * base + np.minimum(users, extra)

    if shards_per_user < 1:
        raise ValueError("shards_per_user must be >= 1")
    if n < num_users * shards_per_user:
        raise ValueError("dataset too small for the requested sharding "
                         f"({n} samples for {num_users} users x {shards_per_user} shards)")
    num_shards = num_users * shards_per_user
    width = shards_per_user * (n // num_shards)  # a user's samples before the remainder
    order = np.argsort(data.labels, kind="stable")
    deal = gen.permutation(num_shards).reshape(num_users, shards_per_user)
    dealt = order[:num_users * width].reshape(num_shards, -1)[deal].reshape(num_users, width)
    dealt.sort(axis=1)
    remainder = order[num_users * width:]  # it belongs to the last shard
    last = int(np.flatnonzero(deal == num_shards - 1)[0]) // shards_per_user
    end = (last + 1) * width
    indices = np.insert(dealt.ravel(), end, remainder)
    indices[end - width:end + remainder.size].sort()
    return indices, users * width + np.where(users > last, remainder.size, 0)
