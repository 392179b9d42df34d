"""The FedAvg protocol engine.

One round: sample a client cohort uniformly at random (`select_clients`),
train each selected client from the global parameter vector on its shard,
its slice of the `data.partition` CSR pair, then replace the global vector
with the sample-count-weighted mean of the local results (`run_round`).
The clients are independent, so the cohort trains as one set of stacked
SGD lanes (`models.train_cohort`), and the mean is one product of the
weights with that (L, P) array (`aggregate`). The caller draws the cohort
once per round and hands the same ids to the timing and energy model and
to `run_round`; the round loop itself, with the round index and the global
vectors, lives in `scenario`. `run_round` runs one round of one or more
independent repeats in lockstep: their cohorts train as the lanes of one
`train_cohort` call, each lane from its own repeat's global vector, and
each repeat's lanes are aggregated alone. Per-client training seeds are
derived from (repeat seed, round, user id), so the outcome does not depend
on the order clients are processed in or on which repeats share the call.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .models import Hyperparams, ModelSpec, train_cohort
from .seeding import child_seed

__all__ = ["FlConfig", "select_clients", "aggregate", "run_round"]


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


def cohort_size(num_users: int, fraction: float) -> int:
    """Selected clients per round: max(1, round(fraction * num_users))."""
    return max(1, round(fraction * num_users))


def select_clients(num_users: int, fraction: float,
                   generator: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement, returned sorted."""
    m = cohort_size(num_users, fraction)
    return np.sort(generator.choice(num_users, size=m, replace=False))


def aggregate(params: np.ndarray, counts) -> np.ndarray:
    """Coordinate-wise weighted mean of the rows of `params`, an (L, P)
    array of local models, row k weighted by its sample count `counts[k]`.

    Weights are normalized counts n_k / sum(n), so a singleton aggregate
    returns its input exactly and scaling every count by a constant leaves
    the result unchanged.
    """
    counts = np.asarray(counts, dtype=float)
    if params.ndim != 2 or params.shape[0] == 0:
        raise ValueError("no updates to aggregate: need a non-empty (L, P) array")
    if counts.shape != (params.shape[0],):
        raise ValueError("one sample count per parameter row is required")
    if np.any(counts < 1):
        raise ValueError("all sample counts must be >= 1")
    return (counts / counts.sum()) @ params


def run_round(params: np.ndarray, config: FlConfig, shards, spec: ModelSpec,
              data: Dataset, selected, seed, rnd: int) -> np.ndarray:
    """Execute FedAvg round `rnd` for R repeats in lockstep; returns their
    new (R, P) global vectors.

    `params` is the (R, P) array of the repeats' global vectors, and
    `shards`, `selected` and `seed` hold one entry per repeat: repeat r
    trains each user u of its cohort `selected[r]` on u's `shards[r]` slice
    with `child_seed(seed[r], rnd, u, "train")`. Every repeat's cohort
    trains as lanes of one `train_cohort` call, each lane from its own
    repeat's vector, and each repeat's lanes are reduced by their own
    `aggregate` call (a product per repeat, so the result equals R
    one-repeat rounds bit for bit).
    """
    if params.ndim != 2:
        raise ValueError("params must be an (R, P) array: one global vector per repeat")
    if any(len(offsets) != config.num_users + 1 for _, offsets in shards):
        raise ValueError("one shard per user is required")
    lanes = [indices[offsets[user]:offsets[user + 1]]
             for (indices, offsets), cohort in zip(shards, selected) for user in cohort]
    seeds = [child_seed(repeat_seed, rnd, int(user), "train")
             for repeat_seed, cohort in zip(seed, selected) for user in cohort]
    sizes = [len(cohort) for cohort in selected]
    trained = train_cohort(np.repeat(params, sizes, axis=0), data.features, data.labels,
                           lanes, spec, config.hyper, seeds)
    bounds = np.cumsum([0] + sizes).tolist()
    return np.stack([aggregate(trained[a:b], [len(lane) for lane in lanes[a:b]])
                     for a, b in zip(bounds, bounds[1:])])
