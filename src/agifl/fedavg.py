"""The FedAvg protocol engine.

One round: sample a client cohort uniformly at random (`select_clients`),
train each selected client from the current global parameters on its own
shard, then replace the global model with the sample-count-weighted mean
of the local results (`run_round`). The clients are independent, so the
cohort trains as one set of stacked SGD lanes (`models.train_cohort`),
each lane equal bit for bit to a `models.local_train` call. The caller
draws the cohort once per round and hands the same ids to the timing and
energy model and to `run_round`; the round loop itself lives in
`scenario.run_repeat`. Per-client training seeds are derived from (master
seed, round, user id), so the outcome does not depend on the order
clients are processed in.
"""

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .models import Hyperparams, ModelSpec, train_cohort
from .seeding import child_seed

__all__ = ["FlConfig", "FlState", "select_clients", "aggregate", "run_round"]


@dataclass(frozen=True)
class FlConfig:
    num_users: int = 100
    fraction: float = 0.02
    hyper: Hyperparams = Hyperparams()
    max_rounds: int = 100

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")


@dataclass(frozen=True)
class FlState:
    global_params: np.ndarray
    round_index: int
    master_seed: int


def cohort_size(num_users: int, fraction: float) -> int:
    """Selected clients per round: max(1, round(fraction * num_users))."""
    return max(1, round(fraction * num_users))


def select_clients(num_users: int, fraction: float,
                   generator: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement, returned sorted."""
    m = cohort_size(num_users, fraction)
    return np.sort(generator.choice(num_users, size=m, replace=False))


def aggregate(updates) -> np.ndarray:
    """Coordinate-wise weighted mean of (params, n_samples) pairs.

    Weights are normalized counts n_k / sum(n), so a singleton aggregate
    returns its input exactly and scaling every count by a constant leaves
    the result unchanged.
    """
    updates = list(updates)
    if not updates:
        raise ValueError("no updates to aggregate")
    length = updates[0][0].shape[0]
    counts = np.array([float(n) for _, n in updates])
    if np.any(counts < 1):
        raise ValueError("all sample counts must be >= 1")
    for params, _ in updates:
        if params.shape != (length,):
            raise ValueError("parameter vectors differ in length")
    weights = counts / counts.sum()
    stacked = np.stack([params for params, _ in updates])
    return weights @ stacked


def run_round(state: FlState, config: FlConfig, shards: list[np.ndarray],
              spec: ModelSpec, data: Dataset, selected):
    """Execute one FedAvg round on the cohort `selected`.

    Returns (new_state, updates) where the updates are the
    (params, n_samples) pairs that were aggregated, in cohort order.
    """
    if len(shards) != config.num_users:
        raise ValueError("one shard per user is required")
    lanes = [shards[user] for user in selected]
    seeds = [child_seed(state.master_seed, state.round_index, int(user), "train")
             for user in selected]
    trained = train_cohort(state.global_params, data.features, data.labels,
                           lanes, spec, config.hyper, seeds)
    updates = [(params, len(lane)) for params, lane in zip(trained, lanes)]
    new_state = replace(state, global_params=aggregate(updates),
                        round_index=state.round_index + 1)
    return new_state, updates
