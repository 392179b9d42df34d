"""Experiment orchestration.

A Scenario fixes everything about one experiment: the topology form (which
layer hosts the server and the clients), the training task and federation
settings, the channel and energy constants, the server placement scheme
and the energy budget. `run_scenario` executes `repeats` independent
instances with seeds derived from the master seed. Each round of a repeat
is

    select cohort -> downlink broadcast -> parallel local compute + uplink
    -> account energy -> aggregate -> evaluate

A repeat halts on the round budget or when the ledger refuses a round
because the monitored entity's energy budget would be exceeded (before
that round trains). That entity's running total never falls, so a run
under a smaller budget keeps exactly the rounds of this run whose recorded
total is within it: `best_accuracy_within` reads any smaller budget off
one run.

Nothing in the network model reads the parameters: cohorts come from the
round's seed, and durations, energies and the ledger's refusal from the
geometry and the cohort. So a repeat runs in two passes. The network pass
places the server and runs the round loop without training, which fixes
every kept round, its cohort and the halt. The learning pass then trains
those cohorts: round r packs the cohorts of every repeat that kept more
than r rounds, in repeat order, into `fedavg.run_round` calls that hold
at most MAX_CALL_FLOATS floats (a call holds at least one repeat), and
evaluates a call's repeats in one `evaluate` call, each on its own. Every
lane equals a lone client's training bit for bit, so which repeats share a
call changes no output.
`run_scenario` gives each process (`jobs`) one contiguous, near-equal
share of the repeats, and `run_repeat` is a share of one.

Within a process, each cohort is drawn and each repeat trained once per
federation, and every run of it reads its rounds off that shared work:
`compare-placement` runs the same repeats under two placements, several
budgets and with and without training. One store, keeping only the last
federation (`functools.lru_cache(maxsize=1)`, as `load_corpus` does), holds
that work. Its key (`_federation`) is what a repeat's cohorts and training
read: the master seed, user count and fraction, hyperparameters, source,
model (hidden width for the MLP), partition (shards per user when sharded)
and `eval_stride`. Runs that differ in anything else (the network, budget,
round budget, repeat count or `train`) share it. It maps each repeat to one
record: its cohorts drawn so far in round order (the read-only arrays
of its results' `selected` column), its global vector after the rounds
trained so far and each round's test metrics. The network pass draws a
round's cohort only past the record's end, and drops what it drew past
the round the ledger refused. It draws a block's new rounds in one
`fedavg.select_cohorts` call: each row is the round's `select_clients`
draw from its own seed, bit for bit, computed as arrays over the block's
seeds, and the rows that array pass cannot give (a short block, NumPy's
tail shuffle, a possible Lemire rejection) are drawn round by round. The
learning pass copies the rounds the record holds and
trains only beyond them, from the stored vector, so a share's repeats may
start at different rounds. `_run_share` alone reads the store and hands
each pass its records.

A pool worker returns its share's records with its repeats, and the
parent installs them, cohorts read-only again, so its next run reads what
the workers drew and trained (a forked worker starts from the parent's
store, so its records extend the parent's).

Every per-user time and energy is constant within a repeat: `user_terms`
builds those no hover point changes and `link_terms` the rest, equal entry
for entry to the scalar references in `oracles`; `round_model` computes a
block of rounds from them by gathers over the (R, m) cohorts and row maxima.
Each refusal evaluates the model it guards; the slowest possible round is
`round_model` over one cohort of every user.
A repeat's result is a record array, a row per kept round (ROUND_COLUMNS).
`ExperimentResult.mean` averages a column over the rounds all repeats
completed, so every mean covers exactly `repeats` instances.
"""

import collections
import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, link_rates
from .data import PARTITION_SCHEMES, Dataset, blob_centers, load_idx, partition, synth_blobs
from .energy import EnergyLedger, UavProfile, entity_index
from .fedavg import FlConfig, cohort_size, run_round, select_cohorts
from .models import ModelSpec, check_architecture, evaluate, init_model, param_count
from .placement import Area, Placement, min_sum_dist, random_placement
from .seeding import child_seed, rng as _rng

__all__ = [
    "BlobSource",
    "IdxSource",
    "ShapeSource",
    "load_source",
    "load_corpus",
    "Scenario",
    "Topology",
    "RepeatResult",
    "ExperimentResult",
    "build_topology",
    "place_server",
    "user_terms",
    "link_terms",
    "run_scenario",
]

FORMS = ("g2a", "a2g", "a2a", "mixed")
PLACEMENT_SCHEMES = ("min_sum_dist", "random", "fixed")
# Floats one train_cohort call may hold: 2 MiB, the per-core L2 of the 2-vCPU Xeon it
# was tuned on. The per-lane cost falls with the lanes while a call stays in cache
MAX_CALL_FLOATS = 2 ** 18
# Member-rounds per round_model block: caps the gathers' peak memory.
BLOCK_MEMBER_ROUNDS = 4096
# SGD lane-steps one repeat may train (local_epochs x each kept member's steps per
# epoch): at about 7 us a lane-step on the case study's 32 features, some 20 hours
MAX_LANE_STEPS = 10 ** 10
# Member-rounds (max_rounds x cohort size) one repeat may simulate, budget or not (a halt
# is known only once its rounds run): at the slowest measured 3.5 us a member-round on a
# 2-vCPU x86-64 host (one-member cohorts; 0.12 us at 3,000 members), about an hour
MAX_MEMBER_ROUNDS = 10 ** 9
# Floats a blob corpus's train or test design matrix may hold (512 MiB): an MNIST-sized
# corpus (60,000 x 785) is built, and one near the cap in both ran in 1.0 GB of RSS
MAX_BLOB_FLOATS = 2 ** 26
# A repeat's result, round k in row k - 1: `budget_total` is the budget entity's running
# total, `selected` the sorted, read-only cohorts its store record holds (not copies)
ROUND_COLUMNS = np.dtype([(name, float) for name in (
    "duration", "uav_energy", "cum_uav_energy", "budget_total", "test_loss", "test_acc")]
    + [("selected", object)])


@dataclass(frozen=True)
class BlobSource:
    """Synthetic Gaussian-blob corpus with a held-out test split."""

    num_classes: int = 10
    samples_per_class: int = 600
    test_samples_per_class: int = 100
    input_dim: int = 32
    spread: float = 0.18

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("blob source needs at least 2 classes")
        if self.samples_per_class < 1 or self.test_samples_per_class < 1:
            raise ValueError("blob source needs at least 1 train and 1 test sample per class")
        if self.input_dim < 1:
            raise ValueError("blob source needs input_dim >= 1")
        if not self.spread > 0:
            raise ValueError("blob source needs a positive spread")
        for name in ("samples_per_class", "test_samples_per_class"):
            floats = self.num_classes * getattr(self, name) * (self.input_dim + 1)
            if floats > MAX_BLOB_FLOATS:
                raise ValueError(f"blob source: num_classes * {name} * (input_dim + 1) = "
                                 f"{floats} floats exceed MAX_BLOB_FLOATS = {MAX_BLOB_FLOATS}")
        # the draw refuses past data.MAX_CENTER_FLOATS; load_source reuses its centers
        blob_centers(self.num_classes, self.input_dim)


@dataclass(frozen=True)
class IdxSource:
    """A directory holding IDX image/label file pairs under IDX_FILES' names."""

    directory: str


# the MNIST names of an IdxSource's train images and labels, then its test ones
IDX_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


@dataclass(frozen=True)
class ShapeSource:
    """Data described only by its shape, for timing-only runs.

    Loads as a Dataset whose design matrix holds one row, from which the
    timing model reads its figures as from any corpus; it cannot train.
    """

    num_samples: int = 60_000
    input_dim: int = 32
    num_classes: int = 10

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("shape source needs input_dim >= 1")
        if not 2 <= self.num_classes <= self.num_samples:
            raise ValueError("shape source needs 2 <= classes <= num_samples")
        if 8 * self.num_samples * (self.input_dim + 1) >= 2 ** 63:
            raise ValueError("shape source: num_samples * (input_dim + 1) float64s exceed "
                             "NumPy's largest array (2**63 - 1 bytes)")


def load_source(source, seed: int):
    """Materialize (train, test) datasets. A ShapeSource has no test set, and
    its train design matrix is a zero-stride view of one row [0, ..., 0, 1]."""
    if isinstance(source, BlobSource):
        train = synth_blobs(source.num_classes, source.samples_per_class,
                            source.input_dim, source.spread,
                            seed=child_seed(seed, "train"))
        test = synth_blobs(source.num_classes, source.test_samples_per_class,
                           source.input_dim, source.spread,
                           seed=child_seed(seed, "test"))
        return train, test
    if isinstance(source, IdxSource):
        paths = [os.path.join(source.directory, name) for name in IDX_FILES]
        return load_idx(*paths[:2]), load_idx(*paths[2:])
    if isinstance(source, ShapeSource):
        n, d = source.num_samples, source.input_dim
        labels = np.arange(n, dtype=np.int64) % source.num_classes
        return Dataset(np.broadcast_to(np.eye(1, d + 1, d), (n, d + 1)), labels), None
    raise TypeError(f"unknown data source {type(source).__name__}")


@functools.lru_cache(maxsize=1)
def load_corpus(source, master_seed: int):
    """The (train, test) corpus of a scenario, keeping the last one: the CLI's
    preflight and every repeat of every run in a process (and its forked
    workers) share one load."""
    return load_source(source, child_seed(master_seed, "data"))


@dataclass(frozen=True)
class Scenario:
    fl: FlConfig = FlConfig()
    source: BlobSource | IdxSource | ShapeSource = BlobSource()
    model_kind: str = "logistic"
    hidden_dim: int = 32
    channel: ChannelParams = ChannelParams()
    uav: UavProfile = UavProfile()
    area: Area = Area()
    form: str = "g2a"
    placement_scheme: str = "min_sum_dist"
    fixed_position: tuple[float, float] = (500.0, 500.0)
    partition_scheme: str = "sharded"
    shards_per_user: int = 2
    energy_budget: float = math.inf
    budget_entity: str = "uav"
    repeats: int = 20
    master_seed: int = 0
    eval_stride: int = 1
    train: bool = True
    broadcast_all: bool = False
    cpu_freq_range: tuple[float, float] = (1.8e9, 2.0e9)
    cycles_per_bit: int = 10
    kappa: float = 0.0  # user compute energy kappa * f^2 * cycles; 0 counts none
    initial_flight_energy: float = 0.0  # flat cost of reaching the hover point
    ground_height: float = 10.0  # server antenna height in the a2g form
    aerial_fraction: float = 0.5  # aerial share of clients in the mixed form

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if self.placement_scheme not in PLACEMENT_SCHEMES:
            raise ValueError(f"unknown placement scheme {self.placement_scheme!r}")
        if not isinstance(self.source, (BlobSource, IdxSource, ShapeSource)):
            raise ValueError(f"unknown data source {type(self.source).__name__}")
        if self.partition_scheme not in PARTITION_SCHEMES:
            raise ValueError(f"unknown partition scheme {self.partition_scheme!r}")
        if self.partition_scheme == "sharded" and self.shards_per_user < 1:
            raise ValueError("shards_per_user must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not -2 ** 127 <= self.master_seed < 2 ** 127:  # `child_seed` packs 16 bytes
            raise ValueError("master_seed must be in [-2**127, 2**127)")
        if self.eval_stride < 1:
            raise ValueError("eval_stride must be >= 1")
        if not self.energy_budget > 0:
            raise ValueError("energy_budget must be positive")
        if self.train and isinstance(self.source, ShapeSource):
            raise ValueError("ShapeSource supports timing-only runs (train=False)")
        entity_index(self.budget_entity, self.fl.num_users)
        check_architecture(self.model_kind, self.hidden_dim)
        if self.cycles_per_bit < 1:
            raise ValueError("cycles_per_bit must be >= 1")
        if not 0 < self.cpu_freq_range[0] <= self.cpu_freq_range[1] < 2.0 ** 512:
            raise ValueError("cpu_freq_range must satisfy 0 < min <= max < 2**512")
        if not all(map(math.isfinite, self.fixed_position)):
            raise ValueError("fixed_position must be finite")
        for name in ("initial_flight_energy", "ground_height", "kappa"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        if not 0 <= self.aerial_fraction <= 1:
            raise ValueError("aerial_fraction must be in [0, 1]")
        # the longest link spans at most the bounding box of the area (which
        # holds the users) and the server, and both altitudes; its rate is the lowest
        points = [(0.0, 0.0), (self.area.width, self.area.height),
                  *([self.fixed_position] if self.placement_scheme == "fixed" else [])]
        xs, ys = zip(*points)
        extent = (max(xs) - min(xs), max(ys) - min(ys), self.uav.altitude, self.ground_height)
        power = min(self.channel.user_tx_power, self.uav.tx_power)
        with np.errstate(all="ignore"):  # an infinite SNR is the run's to refuse
            rate = link_rates(1.0, power, np.array([sum(v * v for v in extent)]), self.channel)
        if not rate[0] > 0:
            raise ValueError("the longest possible link's squared extent overflows or its "
                             "rate is zero (area, positions, altitudes, powers or noise)")


@dataclass(frozen=True)
class Topology:
    """Node geometry for one repeat: star links between server and users."""

    user_xy: np.ndarray  # (U, 2)
    user_alt: np.ndarray  # (U,)
    server_alt: float

    def vertical_offsets(self) -> np.ndarray:
        return np.abs(self.server_alt - self.user_alt)

    def dist_sq(self, placement: Placement) -> np.ndarray:
        """Each user's squared distance to the server at `placement` (libm `pow` squares,
        one per distinct vertical offset: a form has at most two)."""
        horizontal = np.hypot(*(self.user_xy - [placement.x, placement.y]).T)
        offsets, where = np.unique(self.vertical_offsets(), return_inverse=True)
        return _squares(offsets)[where] + _squares(horizontal)


def build_topology(scenario: Scenario, generator: np.random.Generator) -> Topology:
    """Draw user positions and assign per-layer altitudes for the form."""
    num_users = scenario.fl.num_users
    user_xy = np.column_stack([
        generator.uniform(0.0, scenario.area.width, size=num_users),
        generator.uniform(0.0, scenario.area.height, size=num_users),
    ])

    flying = scenario.uav.altitude
    if scenario.form == "g2a":
        user_alt = np.zeros(num_users)
        server_alt = flying
    elif scenario.form == "a2g":
        user_alt = np.full(num_users, flying)
        server_alt = scenario.ground_height
    elif scenario.form == "a2a":
        user_alt = np.full(num_users, flying)
        server_alt = flying
    else:  # mixed
        aerial = generator.random(num_users) < scenario.aerial_fraction
        user_alt = np.where(aerial, flying, 0.0)
        server_alt = flying
    return Topology(user_xy=user_xy, user_alt=user_alt, server_alt=server_alt)


def place_server(scenario: Scenario, topo: Topology,
                 generator: np.random.Generator) -> Placement:
    """Apply the configured hovering-placement scheme to a topology."""
    if scenario.placement_scheme == "min_sum_dist":
        return min_sum_dist(topo.user_xy, topo.vertical_offsets())
    if scenario.placement_scheme == "random":
        return random_placement(scenario.area, generator)
    x, y = scenario.fixed_position
    return Placement(float(x), float(y))


@dataclass
class RepeatResult:
    repeat: int
    metrics: np.recarray  # ROUND_COLUMNS, a row per kept round
    halt_reason: str  # "budget" | "max_rounds"
    placement: Placement
    ledger: EnergyLedger

    def best_accuracy_within(self, budget: float) -> float:
        """Best test accuracy of this repeat run under `budget` instead: over
        the kept rounds whose budget-entity total is at most `budget`."""
        accs = self.metrics.test_acc[self.metrics.budget_total <= budget]
        return float(np.fmax.reduce(accs, initial=math.nan))  # NaN only if all are


@dataclass
class ExperimentResult:
    repeats: list[RepeatResult]

    @property
    def common_rounds(self) -> int:
        """Rounds every repeat completed."""
        return min((len(r.metrics) for r in self.repeats), default=0)

    def mean(self, field: str) -> np.ndarray:
        """Per-round mean over the repeats of a float column, over the common rounds."""
        common = self.common_rounds
        return np.array([r.metrics[field][:common] for r in self.repeats]).mean(axis=0)

    @property
    def halt_reasons(self) -> list[str]:
        return [r.halt_reason for r in self.repeats]

    def mean_best_accuracy_within(self, budget: float) -> float:
        return float(np.mean([r.best_accuracy_within(budget) for r in self.repeats]))


def user_terms(scenario: Scenario, repeat: int, shard_sizes, bits_per_sample: int):
    """Each user's compute time and energy (zero unless kappa > 0), in the operation
    order of `oracles`: cycle counts are Python-int products (int64 could overflow),
    one per shard size, and squares libm `pow`, as `**` (NumPy's `x * x` can differ)."""
    fl, n = scenario.fl, scenario.fl.num_users
    cpu = _rng(scenario.master_seed, repeat, "cpu").uniform(*scenario.cpu_freq_range, size=n)
    sizes, where = np.unique(shard_sizes, return_inverse=True)
    cycles = np.array([_as_float(fl.hyper.local_epochs * size * bits_per_sample
                                 * scenario.cycles_per_bit) for size in sizes.tolist()])[where]
    e_comp = scenario.kappa * _squares(cpu) * cycles if scenario.kappa > 0 else np.zeros(n)
    return cycles / cpu, e_comp


def link_terms(scenario: Scenario, dist_sq: np.ndarray, payload_bits: float):
    """Each user's upload time, upload energy and broadcast receive time, given
    its squared distance to the server, over a cohort member's sub-band B / m."""
    fl, channel = scenario.fl, scenario.channel
    b_up = channel.total_bandwidth / cohort_size(fl.num_users, fl.fraction)
    t_up = payload_bits / link_rates(b_up, channel.user_tx_power, dist_sq, channel)
    t_recv = payload_bits / link_rates(channel.uav_downlink_bandwidth, scenario.uav.tx_power,
                                       dist_sq, channel)
    return t_up, channel.user_tx_power * t_up, t_recv


def round_model(scenario: Scenario, users, cohorts: np.ndarray):
    """Each round's downlink time, duration and server energy, and each
    member's transmit, compute and hover energy, for R cohorts (R, m) and
    `users`: each user's compute + upload time, upload and compute energy,
    receive time and whether it flies."""
    t_client, e_tx, e_comp, t_recv, aerial = users
    propulsion, tx_power = scenario.uav.propulsion_power, scenario.uav.tx_power
    t_down = (np.full(len(cohorts), t_recv.max()) if scenario.broadcast_all
              else t_recv[cohorts].max(axis=1))
    duration = t_down + t_client[cohorts].max(axis=1)
    return (t_down, duration, propulsion * duration + tx_power * t_down, e_tx[cohorts],
            e_comp[cohorts], np.where(aerial[cohorts], propulsion * duration[:, None], 0.0))


def _squares(values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.pow, values.tolist(), itertools.repeat(2.0)), float, len(values))


def _as_float(n: int) -> float:  # float(n), but inf from 2**1024 - 2**970 on, where that raises
    return float(n) if n < 2 ** 1024 - 2 ** 970 else math.inf


@dataclass
class _Repeat:
    """A repeat's work in its federation so far: its cohorts drawn, in round
    order (the read-only arrays of its results' `selected` column, so the
    store adds no copy), its global vector after the rounds trained (None
    until it first trains) and each trained round's (test_loss, test_acc),
    None where eval_stride skips it."""

    cohorts: list = field(default_factory=list)
    params: np.ndarray | None = None
    tests: list = field(default_factory=list)


def _federation(scenario: Scenario) -> tuple:
    """The store's key: the fields a repeat's cohorts (seed, users, fraction)
    and training (the rest) read, each conditional one only where it is read."""
    fl, mlp, sharded = (scenario.fl, scenario.model_kind == "mlp",
                        scenario.partition_scheme == "sharded")
    return (scenario.master_seed, fl.num_users, fl.fraction, fl.hyper, scenario.source,
            scenario.model_kind, scenario.hidden_dim if mlp else None,
            scenario.partition_scheme, scenario.shards_per_user if sharded else None,
            scenario.eval_stride)


@functools.lru_cache(maxsize=1)
def _store(federation: tuple) -> dict:
    """Each repeat's _Repeat, keeping the last federation's."""
    return collections.defaultdict(_Repeat)


def _network_pass(scenario: Scenario, repeat: int, record: _Repeat, spec: ModelSpec,
                  train_data: Dataset):
    """Place the server and run the round loop of one repeat without training:
    the repeat's result with NaN test metrics, and its `partition` pair if
    the run trains (else None). A round's cohort is drawn only past the end of
    `record.cohorts`, and those this pass drew past the refused round are dropped.
    Nothing here reads the parameters, so the kept rounds and cohorts are final."""
    seed, fl = scenario.master_seed, scenario.fl
    topo = build_topology(scenario, _rng(seed, repeat, "positions"))
    placement = place_server(scenario, topo, _rng(seed, repeat, "placement"))
    shards = partition(train_data, fl.num_users,
                       scheme=scenario.partition_scheme,
                       shards_per_user=scenario.shards_per_user,
                       seed=child_seed(seed, repeat, "partition"))
    payload_bits = _as_float(param_count(spec) * scenario.channel.payload_bits_per_param)
    master = child_seed(seed, repeat)

    dist_sq = topo.dist_sq(placement)
    with np.errstate(all="ignore"):  # what overflows is refused here, not warned about
        t_up, e_tx, t_recv = link_terms(scenario, dist_sq, payload_bits)
        if not (np.minimum(t_up, t_recv) > 0).all():  # 0 or NaN: an infinite SNR
            raise ValueError(f"link endpoints coincide: user {dist_sq.argmin()} is too close "
                             f"to the server for a finite SNR in repeat {repeat}")
        t_comp, e_comp = user_terms(scenario, repeat, np.diff(shards[1]),
                                    train_data.bits_per_sample)
        users = t_comp + t_up, e_tx, e_comp, t_recv, topo.user_alt > 0
        everyone = np.arange(fl.num_users)[None]  # the slowest possible round's one cohort
        _, duration, slowest_server, *slowest = round_model(scenario, users, everyone)
        # its server energy and largest member energy bound a round's; a running total or
        # mean the CSVs write sums at most max_rounds such rounds and the flight energy
        # over the repeats: twice that covers rounding
        energy = np.max([slowest_server[0], sum(slowest).max()])  # NaN stays NaN
        if not ((duration[0] + energy) * fl.max_rounds + scenario.initial_flight_energy) \
                * scenario.repeats * 2 < math.inf:
            raise ValueError(f"the slowest possible round of repeat {repeat} takes an infinite "
                             f"time or energy, or {fl.max_rounds} of them over "
                             f"{scenario.repeats} repeats overflow a total (bandwidths, powers, "
                             "cycles, kappa, payload, rounds or flight energy)")
    m = cohort_size(fl.num_users, fl.fraction)
    if fl.max_rounds * m > MAX_MEMBER_ROUNDS:
        raise ValueError(f"max_rounds {fl.max_rounds} would simulate repeat {repeat} past "
                         f"{MAX_MEMBER_ROUNDS:.0e} member-rounds (max_rounds x cohort size {m})")
    per_block = max(1, BLOCK_MEMBER_ROUNDS // m)

    ledger = EnergyLedger(fl.num_users, scenario.energy_budget, scenario.budget_entity,
                          scenario.initial_flight_energy)
    blocks, drawn, rnd, kept, size = [], record.cohorts, 0, 0, 0
    stored = len(drawn)
    while rnd < fl.max_rounds and kept == size:
        size = min(fl.max_rounds - rnd, per_block)
        if len(drawn) < rnd + size:  # each row a read-only view of the block's draw
            block = select_cohorts(fl.num_users, fl.fraction, [
                child_seed(master, r, "select") for r in range(len(drawn), rnd + size)])
            block.flags.writeable = False
            drawn.extend(block)
        cohorts = np.array(drawn[rnd:rnd + size])
        _, duration, server, *members = round_model(scenario, users, cohorts)
        kept, cum_uav, spent = ledger.add_rounds(server, cohorts, *members)
        blocks.append((duration[:kept], server[:kept], cum_uav, spent))
        rnd += size

    rounds = rnd - size + kept  # every block but the last kept all its rounds
    del drawn[max(stored, rounds + 1):]  # this pass's draws past the refused round
    metrics = np.recarray(rounds, ROUND_COLUMNS)
    for name, column in zip(ROUND_COLUMNS.names, zip(*blocks)):
        metrics[name] = np.concatenate(column)
    metrics.test_loss = metrics.test_acc = math.nan
    # fromiter: assigning the list would make NumPy build one (rounds, m) array
    metrics.selected = np.fromiter(drawn[:rounds], object, rounds)
    halt_reason = "budget" if kept < size else "max_rounds"
    return (RepeatResult(repeat, metrics, halt_reason, placement, ledger),
            shards if scenario.train else None)


def _learning_pass(scenario: Scenario, spec: ModelSpec, reps, records, shards,
                   train_data: Dataset, test_data: Dataset) -> None:
    """Train a share's repeats and fill in their test metrics. Each repeat
    continues the training its record holds, so only the kept rounds beyond
    it train: round `rnd` trains the cohorts of every repeat that kept more
    than `rnd` rounds and has trained exactly `rnd`, in repeat order, in
    `run_round` calls of as many repeats as keep a call's floats within
    MAX_CALL_FLOATS (at least one repeat). A lane holds its weights and
    gradient (2P), its gathered batch rows (b(d+1)) and the MLP's activations
    (b(h+1)), b being the batch size or the largest shard if that is smaller.
    A repeat whose kept rounds would take more than MAX_LANE_STEPS is refused
    first."""
    seed, stride, hyper = scenario.master_seed, scenario.eval_stride, scenario.fl.hyper
    for rep, (_, offsets) in zip(reps, shards):  # Python ints: local_epochs is unbounded
        steps = -(-np.diff(offsets) // hyper.batch_size)  # each user's SGD steps per epoch
        kept = np.concatenate([np.empty(0, np.int64), *rep.metrics.selected])
        if hyper.local_epochs * int(steps[kept].sum()) > MAX_LANE_STEPS:
            raise ValueError(f"local_epochs {hyper.local_epochs} would train repeat "
                             f"{rep.repeat} past {MAX_LANE_STEPS:.0e} SGD lane-steps "
                             "(epochs x each kept member's ceil(shard / batch_size))")
    batch = min(hyper.batch_size, max(int(np.diff(offsets).max()) for _, offsets in shards))
    lane_floats = 2 * param_count(spec) + batch * (spec.input_dim + 1)
    if spec.kind == "mlp":
        lane_floats += batch * (spec.hidden_dim + 1)
    per_call = max(1, MAX_CALL_FLOATS
                   // (lane_floats * cohort_size(scenario.fl.num_users, scenario.fl.fraction)))
    for rep, record in zip(reps, records):
        if record.params is None:
            record.params = init_model(spec, child_seed(seed, rep.repeat, "init"))
    masters = [child_seed(seed, rep.repeat) for rep in reps]
    kept = [len(rep.metrics) for rep in reps]
    for rnd in range(min(len(record.tests) for record in records), max(kept)):
        live = [i for i, record in enumerate(records) if len(record.tests) == rnd < kept[i]]
        for call in (live[start:start + per_call] for start in range(0, len(live), per_call)):
            with np.errstate(all="ignore"):  # a diverging model is refused here, not warned about
                trained = run_round(np.stack([records[i].params for i in call]), scenario.fl,
                                    [shards[i] for i in call], spec, train_data,
                                    [records[i].cohorts[rnd] for i in call],
                                    [masters[i] for i in call], rnd)
                tests = (evaluate(trained, spec, test_data.design, test_data.labels)
                         if (rnd + 1) % stride == 0 else [None] * len(call))
            for i, params, test in zip(call, trained, tests):
                if not (np.isfinite(params).all() and math.isfinite(test[0] if test else 0.0)):
                    raise ValueError(f"learning_rate {scenario.fl.hyper.learning_rate!r} "
                                     f"diverges: repeat {reps[i].repeat}'s model or test loss "
                                     f"is not finite after round {rnd + 1}")
                records[i].params = params
                records[i].tests.append(test)
    for rep, record in zip(reps, records):
        metrics, tests = rep.metrics, record.tests[stride - 1:len(rep.metrics):stride]
        metrics.test_loss[stride - 1::stride], metrics.test_acc[stride - 1::stride] = \
            np.reshape(tests, (-1, 2)).T


def _run_share(scenario: Scenario, repeats):
    """Simulate a share of the repeats: each repeat's network pass, then one
    learning pass over all of them. Returns their results and their store
    records, by repeat."""
    train_data, test_data = load_corpus(scenario.source, scenario.master_seed)
    # the model trained, or stood in for on timing-only runs: its size sets the payload
    spec = ModelSpec(scenario.model_kind, train_data.input_dim, train_data.num_classes,
                     scenario.hidden_dim)
    store = _store(_federation(scenario))
    records = {r: store[r] for r in repeats}
    reps, shards = zip(*(_network_pass(scenario, r, records[r], spec, train_data)
                         for r in repeats))
    if scenario.train:
        _learning_pass(scenario, spec, reps, list(records.values()), shards,
                       train_data, test_data)
    return list(reps), records


# No production path calls this; perfbench/launch.py binds it by name.
def run_repeat(scenario: Scenario, repeat: int) -> RepeatResult:
    """Simulate one seeded instance of the scenario."""
    return _run_share(scenario, [repeat])[0][0]


def run_scenario(scenario: Scenario, jobs: int = 1) -> ExperimentResult:
    """Run all repeats, each process (`jobs`) one contiguous, near-equal share.

    The result is deterministic for a fixed master seed regardless of
    `jobs`, of which repeats share a training call and of what earlier runs
    stored: every repeat derives its own seed streams, every lane of a call
    equals a lone client's training bit for bit, and the merge is by repeat
    index.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    shares = [share.tolist() for share in
              np.array_split(np.arange(scenario.repeats), min(jobs, scenario.repeats))]
    if len(shares) == 1:
        outputs = [_run_share(scenario, shares[0])]
    else:
        # imported here: the pool machinery is a large share of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(shares)) as pool:
            outputs = list(pool.map(_run_share, [scenario] * len(shares), shares))
    store = _store(_federation(scenario))
    for _, records in outputs:  # a worker's records come back writeable
        for cohort in (c for record in records.values() for c in record.cohorts):
            cohort.flags.writeable = False
        store.update(records)
    return ExperimentResult([rep for reps, _ in outputs for rep in reps])
