"""The FedAvg protocol engine.

One round: sample a client cohort uniformly at random (`select_clients`),
train each selected client from the global parameter vector on its shard,
its slice of the `data.partition` CSR pair, then replace the global vector
with the sample-count-weighted mean of the local results (`run_round`).
`select_cohorts` draws the cohorts of a block of rounds at once, each row
bit for bit the `select_clients` draw from its round's seed. The clients
are independent, so the cohort trains as one set of stacked
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

__all__ = ["FlConfig", "select_clients", "select_cohorts", "aggregate", "run_round"]

# A block of fewer rounds than this, or than its cohort size, draws round by round: the
# array pass costs about 0.15 ms at any size (some ten `default_rng` draws), and its
# duplicate resolution steps once per member
BLOCK_DRAW_ROUNDS = 16
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's 128-bit LCG multiplier


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


def select_cohorts(num_users: int, fraction: float, seeds) -> np.ndarray:
    """The cohorts of R rounds, one (R, m) int64 array: row r equals
    `select_clients(num_users, fraction, np.random.default_rng(seeds[r]))`
    for each seed, an int in [0, 2**64).

    A block of at least max(BLOCK_DRAW_ROUNDS, m) rounds computes that
    stream as arrays over the seeds: `SeedSequence`'s hash of each seed,
    PCG64's seeding and outputs (`_pcg64_outputs`), and Floyd's sampling in
    `Generator.choice`, whose draw for j in n-m..n-1 is Lemire's
    multiply-shift of a 32-bit half (low half first; j = 0 draws none), a
    value already taken giving way to j. A row whose product's low word is
    below j + 1, where NumPy may reject and redraw, is drawn by
    `select_clients`, as is every row of a shorter block, of a population
    above 10,000 whose cohort exceeds its fiftieth (where NumPy shuffles a
    tail in place of Floyd's loop) or of more than 2**32 - 1 users (where
    j + 1 passes 32 bits).
    """
    n, m = num_users, cohort_size(num_users, fraction)
    seeds, cohorts = list(seeds), np.empty((len(seeds), m), dtype=np.int64)
    redraw = range(len(seeds))
    if len(seeds) >= max(BLOCK_DRAW_ROUNDS, m) and (n <= 10_000 or m <= n // 50) \
            and n <= _M32:
        bounds = np.arange(max(n - m, 1), n, dtype=np.uint64) + np.uint64(1)  # j + 1
        outputs = _pcg64_outputs(seeds, (len(bounds) + 1) // 2)
        halves = np.stack([outputs & np.uint64(_M32), outputs >> np.uint64(32)], axis=2)
        products = halves.reshape(len(seeds), -1)[:, :len(bounds)] * bounds
        values = (products >> np.uint64(32)).astype(np.int64)
        if n == m:  # j = 0 takes 0
            values = np.column_stack([np.zeros(len(seeds), dtype=np.int64), values])
        cohorts[:] = np.sort(values, axis=1)
        repeated = np.flatnonzero((cohorts[:, 1:] == cohorts[:, :-1]).any(axis=1))
        if repeated.size:
            taken = values[repeated]
            for i in range(1, m):
                taken[(taken[:, :i] == taken[:, i:i + 1]).any(axis=1), i] = n - m + i
            cohorts[repeated] = np.sort(taken, axis=1)
        redraw = np.flatnonzero(((products & np.uint64(_M32)) < bounds).any(axis=1)).tolist()
    for r in redraw:
        cohorts[r] = select_clients(n, fraction, np.random.default_rng(seeds[r]))
    return cohorts


def _pcg64_outputs(seeds, count: int) -> np.ndarray:
    """The first `count` outputs of `np.random.PCG64(seed)` for each seed, (R, count)
    uint64: its state, seeded from `SeedSequence(seed).generate_state(4, np.uint64)`
    as (seed word 0 high, 1 low; increment words 2, 3), steps s -> s * MULT + inc
    (mod 2**128) before each output, the XSL-RR of the new state. Output k reads
    MULT**(k+1) * seed + (1 + MULT + ... + MULT**(k+1)) * inc, in 64-bit halves."""
    seed_hi, seed_lo, inc_hi, inc_lo = (word[:, None] for word in _seed_state(seeds))
    one = np.uint64(1)
    inc_hi, inc_lo = inc_hi << one | inc_lo >> np.uint64(63), inc_lo << one | one
    power, total, powers, totals = _PCG_MULT, 1 + _PCG_MULT, [], []
    for _ in range(count):
        power = power * _PCG_MULT & _M128
        total = (total + power) & _M128
        powers.append(power)
        totals.append(total)
    s_hi, s_lo = _times(powers, seed_hi, seed_lo)
    t_hi, t_lo = _times(totals, inc_hi, inc_lo)
    lo = s_lo + t_lo
    hi = s_hi + t_hi + (lo < t_lo)
    mixed, rotation = hi ^ lo, hi >> np.uint64(58)
    return mixed >> rotation | mixed << (-rotation & np.uint64(63))


def _times(constants, hi: np.ndarray, lo: np.ndarray):
    """(hi, lo) 64-bit halves of constants[k] * (hi, lo)[:, k] mod 2**128, by 32-bit limbs."""
    c_hi = np.array([c >> 64 for c in constants], dtype=np.uint64)
    c_lo = np.array([c & (2 ** 64 - 1) for c in constants], dtype=np.uint64)
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = c_lo & m32, c_lo >> s32, lo & m32, lo >> s32
    cross, other = a0 * b1, a1 * b0
    carry = ((a0 * b0 >> s32) + (cross & m32) + (other & m32)) >> s32
    return (a1 * b1 + (cross >> s32) + (other >> s32) + carry + c_lo * hi + c_hi * lo,
            c_lo * lo)


# SeedSequence's hash chains (a constant, times a multiplier per hash, mod 2**32) for
# its pool and for the state it generates, and its mix's multipliers
_CHAIN_A, _CHAIN_B = (np.array([init * pow(mult, k, 1 << 32) & _M32 for k in range(count)],
                               dtype=np.uint32)[:, None]
                      for init, mult, count in ((0x43B0D7E5, 0x931E8875, 17),
                                                (0x8B51F9DD, 0x58F38DED, 9)))
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _seed_state(seeds) -> np.ndarray:
    """`SeedSequence(seed).generate_state(4, np.uint64)` for each seed in [0, 2**64),
    (4, R): the seed's two 32-bit words, then two zero words, hash into a pool of
    four, each word is mixed into the other three, and eight words are hashed
    out of the pool, little-endian pairs forming the four 64-bit words."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = np.zeros((4, len(seeds)), dtype=np.uint32)
    words[0], words[1] = seeds & np.uint64(_M32), seeds >> np.uint64(32)
    pool = _hash(words, _CHAIN_A[:4], _CHAIN_A[1:5])
    for src in range(4):
        k, dst = 4 + 3 * src, [i for i in range(4) if i != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _CHAIN_A[k:k + 3],
                                                    _CHAIN_A[k + 1:k + 4])
        pool[dst] = mixed ^ mixed >> np.uint32(16)
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _CHAIN_B[:8], _CHAIN_B[1:]).astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)


def _hash(values: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix: xor with one constant of its chain, times the next, xorshift."""
    hashed = (values ^ before) * after
    return hashed ^ hashed >> np.uint32(16)


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
    trained = train_cohort(np.repeat(params, sizes, axis=0), data.design, data.labels,
                           lanes, spec, config.hyper, seeds)
    bounds = np.cumsum([0] + sizes).tolist()
    return np.stack([aggregate(trained[a:b], [len(lane) for lane in lanes[a:b]])
                     for a, b in zip(bounds, bounds[1:])])
