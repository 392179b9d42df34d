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
those cohorts. Repeats are grouped into lockstep groups of contiguous
repeats whose cohorts together hold at most LANE_CEILING lanes (a group
holds at least one repeat); round r of a group trains the cohorts of
every repeat that kept more than r rounds as the lanes of one
`fedavg.run_round` call, and evaluates each repeat on its own. Every lane
equals a lone client's training bit for bit, so the grouping changes no
output. The group is the unit of work: `run_scenario` runs the groups in
order or over a process pool (`jobs`), and `run_repeat` is a group of one.

Within a process, each cohort is drawn and each repeat trained once per
federation, and every run of it reads its rounds off that shared work:
`compare-placement` runs the same repeats under two placements, several
budgets and with and without training. Two stores, each keeping only the
last federation (`functools.lru_cache(maxsize=1)`, as `load_corpus` does),
hold that work:

- the cohort store, keyed `(master_seed, num_users, fraction)`, holds each
  repeat's cohorts drawn so far in round order, the read-only arrays their
  RoundMetrics hold; the network pass draws a round's cohort only past the
  store's end, so no round is drawn that the round loop would not reach;
- the trajectory store, keyed by the scenario with the fields that cannot
  change what a repeat trains set to one value (placement scheme, fixed
  position, energy budget and its entity, repeat count, `fl.max_rounds`;
  every other field stays in the key), holds each repeat's global vector
  after the rounds trained so far and each round's test metrics. The
  learning pass copies the rounds the store holds and trains only beyond
  them, from the stored vector, so a lockstep group's repeats may start at
  different rounds.

A pool worker returns its group's store entries with its repeats, and the
parent installs them, cohorts read-only again, so its next run reads what
the workers drew and trained (a forked worker starts from the parent's
stores, so its entries extend the parent's).

Every per-user time and energy is constant within a repeat, so
`per_user_arrays` builds them once, equal entry for entry to the scalar
references in `oracles`; a round is then a gather over its cohort and a
max each for the slowest client and the slowest broadcast recipient.
`ExperimentResult.mean` averages a per-round field over the rounds all
repeats completed, so every mean covers exactly `repeats` instances.
"""

import collections
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelParams, link_rates, per_client_bandwidth, tx_time
from .data import Dataset, load_idx, partition, synth_blobs
from .energy import EnergyLedger, UavProfile, entity_index, user_compute_energy
from .fedavg import FlConfig, cohort_size, run_round, select_clients
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
    "RoundMetrics",
    "RepeatResult",
    "ExperimentResult",
    "build_topology",
    "place_server",
    "per_user_arrays",
    "run_scenario",
]

FORMS = ("g2a", "a2g", "a2a", "mixed")
PLACEMENT_SCHEMES = ("min_sum_dist", "random", "fixed")
# Lanes per lockstep train_cohort call: the per-lane cost stops falling at
# about 8-16 lanes, while the call's memory keeps growing with the lanes.
LANE_CEILING = 16


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


@dataclass(frozen=True)
class IdxSource:
    """IDX image/label file pairs (MNIST layout)."""

    train_images: str
    train_labels: str
    test_images: str
    test_labels: str


@dataclass(frozen=True)
class ShapeSource:
    """Data described only by its shape, for timing-only runs.

    Loads as a Dataset whose features hold no memory, from which the timing
    model reads its figures as from any corpus; it cannot train or evaluate.
    """

    num_samples: int = 60_000
    input_dim: int = 32
    num_classes: int = 10

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("shape source needs input_dim >= 1")
        if not 2 <= self.num_classes <= self.num_samples:
            raise ValueError("shape source needs 2 <= classes <= num_samples")


def load_source(source, seed: int):
    """Materialize (train, test) datasets. A ShapeSource has no test set, and
    its train features are a zero-stride view that holds no memory."""
    if isinstance(source, BlobSource):
        train = synth_blobs(source.num_classes, source.samples_per_class,
                            source.input_dim, source.spread,
                            seed=child_seed(seed, "train"))
        test = synth_blobs(source.num_classes, source.test_samples_per_class,
                           source.input_dim, source.spread,
                           seed=child_seed(seed, "test"))
        return train, test
    if isinstance(source, IdxSource):
        return (load_idx(source.train_images, source.train_labels),
                load_idx(source.test_images, source.test_labels))
    if isinstance(source, ShapeSource):
        labels = np.arange(source.num_samples, dtype=np.int64) % source.num_classes
        features = np.broadcast_to(0.0, (source.num_samples, source.input_dim))
        return Dataset(features=features, labels=labels), None
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
    source: object = BlobSource()
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
    include_user_compute_energy: bool = False
    kappa: float = 1e-28
    initial_flight_energy: float = 0.0  # flat cost of reaching the hover point
    ground_height: float = 10.0  # server antenna height in the a2g form
    aerial_fraction: float = 0.5  # aerial share of clients in the mixed form
    user_positions: tuple | None = None  # ((x, y), ...) overrides random deployment

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if self.placement_scheme not in PLACEMENT_SCHEMES:
            raise ValueError(f"unknown placement scheme {self.placement_scheme!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
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
        if not 0 < self.cpu_freq_range[0] <= self.cpu_freq_range[1] < math.inf:
            raise ValueError("cpu_freq_range must satisfy 0 < min <= max < inf")
        if not all(map(math.isfinite, self.fixed_position)):
            raise ValueError("fixed_position must be finite")
        if self.user_positions is not None and not (
                np.shape(self.user_positions) == (self.fl.num_users, 2)
                and np.isfinite(self.user_positions).all()):
            raise ValueError("user_positions must hold one finite (x, y) per user")
        for name in ("initial_flight_energy", "ground_height", "kappa"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        if not 0 <= self.aerial_fraction <= 1:
            raise ValueError("aerial_fraction must be in [0, 1]")


@dataclass
class Topology:
    """Node geometry for one repeat: star links between server and users."""

    user_xy: np.ndarray  # (U, 2)
    user_alt: np.ndarray  # (U,)
    server_alt: float
    placement: Placement | None = None

    def vertical_offsets(self) -> np.ndarray:
        return np.abs(self.server_alt - self.user_alt)

    def horizontal_distances(self) -> np.ndarray:
        if self.placement is None:
            raise ValueError("server not placed yet")
        delta = self.user_xy - np.array([self.placement.x, self.placement.y])
        return np.hypot(delta[:, 0], delta[:, 1])


def build_topology(scenario: Scenario, generator: np.random.Generator) -> Topology:
    """Draw user positions and assign per-layer altitudes for the form."""
    num_users = scenario.fl.num_users
    if scenario.user_positions is not None:
        user_xy = np.asarray(scenario.user_positions, dtype=float)
    else:
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
        return min_sum_dist(topo.user_xy, topo.vertical_offsets(), tol=1e-6)
    if scenario.placement_scheme == "random":
        return random_placement(scenario.area, generator)
    x, y = scenario.fixed_position
    return Placement(float(x), float(y))


@dataclass(frozen=True)
class RoundMetrics:
    round: int  # 1-based
    duration: float
    uav_energy: float
    cum_uav_energy: float
    test_loss: float
    test_acc: float
    selected: np.ndarray  # the sorted, read-only cohort of the cohort store
    budget_total: float  # the budget entity's running total after this round


@dataclass
class RepeatResult:
    repeat: int
    metrics: list[RoundMetrics]
    halt_reason: str  # "budget" | "max_rounds"
    placement: Placement
    ledger: EnergyLedger

    def best_accuracy_within(self, budget: float) -> float:
        """Best test accuracy of this repeat run under `budget` instead: over
        the kept rounds whose budget-entity total is at most `budget`."""
        accs = [m.test_acc for m in self.metrics
                if m.budget_total <= budget and not math.isnan(m.test_acc)]
        return max(accs) if accs else math.nan


@dataclass
class ExperimentResult:
    repeats: list[RepeatResult]

    @property
    def common_rounds(self) -> int:
        """Rounds every repeat completed."""
        return min((len(r.metrics) for r in self.repeats), default=0)

    def mean(self, field: str) -> np.ndarray:
        """Per-round mean over the repeats of a `RoundMetrics` field, for
        each of the common rounds."""
        common = self.common_rounds
        return np.array([[getattr(m, field) for m in r.metrics[:common]]
                         for r in self.repeats]).mean(axis=0)

    @property
    def halt_reasons(self) -> list[str]:
        return [r.halt_reason for r in self.repeats]

    def mean_best_accuracy_within(self, budget: float) -> float:
        return float(np.mean([r.best_accuracy_within(budget) for r in self.repeats]))

    @property
    def mean_best_accuracy(self) -> float:
        return self.mean_best_accuracy_within(math.inf)


def per_user_arrays(scenario: Scenario, repeat: int, topo: Topology, shard_sizes,
                    payload_bits: int, bits_per_sample: int):
    """Each user's compute + upload time, upload energy, compute energy and
    broadcast receive time, fixed within a repeat as the cohort size (so the
    uplink sub-band) is. Cycle counts are Python-int products, which int64 could
    overflow; squares use Python's `**` as `oracles.rate_direct` does (NumPy's
    can differ in the last bit); the rest keeps the scalar references'
    operation order."""
    fl, channel, n = scenario.fl, scenario.channel, scenario.fl.num_users
    dist_sq = np.fromiter((v ** 2 + h ** 2 for v, h in zip(
        topo.vertical_offsets().tolist(), topo.horizontal_distances().tolist())), float, n)
    if not dist_sq.all():
        raise ValueError(f"link endpoints coincide: user {(dist_sq == 0).argmax()} "
                         f"is at the server's position in repeat {repeat}")
    b_up = per_client_bandwidth(channel, cohort_size(n, fl.fraction))
    t_up = tx_time(payload_bits, link_rates(b_up, channel.user_tx_power, dist_sq, channel))
    cpu = _rng(scenario.master_seed, repeat, "cpu").uniform(*scenario.cpu_freq_range, size=n)
    cycles = np.fromiter((fl.hyper.local_epochs * size * bits_per_sample
                          * scenario.cycles_per_bit for size in shard_sizes.tolist()), float, n)
    e_comp = (np.fromiter((user_compute_energy(f, c, scenario.kappa)
                           for f, c in zip(cpu.tolist(), cycles.tolist())), float, n)
              if scenario.include_user_compute_energy else np.zeros(n))
    t_recv = tx_time(payload_bits, link_rates(channel.uav_downlink_bandwidth,
                                              scenario.uav.tx_power, dist_sq, channel))
    return cycles / cpu + t_up, channel.user_tx_power * t_up, e_comp, t_recv


@functools.lru_cache(maxsize=1)
def _cohorts(master_seed: int, num_users: int, fraction: float) -> dict:
    """The cohorts drawn so far for each repeat, in round order, keeping the
    last federation's: a repeat's round draws its cohort from the master
    seed alone, whatever the placement, budget or repeat count. Each is the
    read-only array its round's RoundMetrics holds, so the store adds no copy."""
    return collections.defaultdict(list)


@dataclass
class _Trajectory:
    """A repeat's training so far: its global vector after the rounds trained,
    and each round's (test_loss, test_acc), None where eval_stride skips it."""

    params: np.ndarray
    tests: list = field(default_factory=list)


def _federation(scenario: Scenario) -> Scenario:
    """The scenario with one value for each field that cannot change what its
    repeats train: the placement (the hover point), the budget and its entity
    (the halts), the repeat count and the round budget. Every other field
    keys the trajectory store."""
    return replace(scenario, placement_scheme="fixed", fixed_position=(0.0, 0.0),
                   energy_budget=math.inf, budget_entity="uav", repeats=1,
                   fl=replace(scenario.fl, max_rounds=0))


@functools.lru_cache(maxsize=1)
def _trajectories(federation: Scenario) -> dict:
    """Each repeat's _Trajectory, keeping the last federation's."""
    return {}


def _network_pass(scenario: Scenario, repeat: int, spec: ModelSpec, train_data: Dataset):
    """Place the server and run the round loop of one repeat without training:
    the repeat's result with NaN test metrics, and its `partition` pair.
    Nothing here reads the parameters, so the kept rounds and cohorts are final."""
    seed, fl, channel = scenario.master_seed, scenario.fl, scenario.channel
    topo = build_topology(scenario, _rng(seed, repeat, "positions"))
    topo.placement = place_server(scenario, topo, _rng(seed, repeat, "placement"))
    shards = partition(train_data, fl.num_users,
                       scheme=scenario.partition_scheme,
                       shards_per_user=scenario.shards_per_user,
                       seed=child_seed(seed, repeat, "partition"))
    payload_bits = param_count(spec) * channel.payload_bits_per_param
    master = child_seed(seed, repeat)

    t_client, e_tx, e_comp, t_recv = per_user_arrays(
        scenario, repeat, topo, np.diff(shards[1]), payload_bits, train_data.bits_per_sample)
    p_hover = np.where(topo.user_alt > 0, scenario.uav.propulsion_power, 0.0)

    ledger = EnergyLedger(fl.num_users, scenario.energy_budget, scenario.budget_entity)
    ledger.charge("uav", scenario.initial_flight_energy)
    metrics: list[RoundMetrics] = []
    halt_reason = "max_rounds"
    drawn = _cohorts(seed, fl.num_users, fl.fraction)[repeat]

    for rnd in range(fl.max_rounds):
        if rnd == len(drawn):
            drawn.append(select_clients(fl.num_users, fl.fraction, _rng(master, rnd, "select")))
            drawn[rnd].flags.writeable = False
        selected = drawn[rnd]
        recipients = slice(None) if scenario.broadcast_all else selected
        t_down = float(t_recv[recipients].max())  # = payload / lowest rate, exactly
        duration = t_down + float(t_client[selected].max())
        server = scenario.uav.propulsion_power * duration + scenario.uav.tx_power * t_down
        if not ledger.add_round(server, selected, e_tx[selected], e_comp[selected],
                                p_hover[selected] * duration):
            halt_reason = "budget"
            break
        metrics.append(RoundMetrics(
            round=rnd + 1, duration=duration, uav_energy=server,
            cum_uav_energy=ledger.total("uav"), test_loss=math.nan,
            test_acc=math.nan, selected=selected,
            budget_total=ledger.total(scenario.budget_entity)))

    result = RepeatResult(repeat=repeat, metrics=metrics, halt_reason=halt_reason,
                          placement=topo.placement, ledger=ledger)
    return result, shards


def _learning_pass(scenario: Scenario, spec: ModelSpec, reps, shards,
                   train_data: Dataset, test_data: Dataset) -> None:
    """Train the repeats of a group in lockstep and fill in their test
    metrics. Each repeat continues its stored trajectory, so only the kept
    rounds beyond it train: round `rnd` trains, in one `run_round` call, the
    cohorts of every repeat that kept more than `rnd` rounds and has trained
    exactly `rnd`."""
    seed, stride = scenario.master_seed, scenario.eval_stride
    store = _trajectories(_federation(scenario))
    for rep in reps:
        if rep.repeat not in store:
            store[rep.repeat] = _Trajectory(init_model(
                replace(spec, init_seed=child_seed(seed, rep.repeat, "init"))))
    trajs = [store[rep.repeat] for rep in reps]
    masters = [child_seed(seed, rep.repeat) for rep in reps]
    kept = [len(rep.metrics) for rep in reps]
    for rnd in range(min(len(t.tests) for t in trajs), max(kept)):
        live = [i for i, t in enumerate(trajs) if len(t.tests) == rnd < kept[i]]
        if not live:
            continue
        trained = run_round(np.stack([trajs[i].params for i in live]), scenario.fl,
                            [shards[i] for i in live], spec, train_data,
                            [reps[i].metrics[rnd].selected for i in live],
                            [masters[i] for i in live], rnd)
        for i, params in zip(live, trained):
            test = (evaluate(params, spec, test_data.features, test_data.labels)
                    if (rnd + 1) % stride == 0 else None)
            trajs[i].params = params
            trajs[i].tests.append(test)
    for rep, traj in zip(reps, trajs):
        for rnd in range(stride - 1, len(rep.metrics), stride):
            test_loss, test_acc = traj.tests[rnd]
            rep.metrics[rnd] = replace(rep.metrics[rnd], test_loss=test_loss,
                                       test_acc=test_acc)


def _stores(scenario: Scenario):
    """The cohort store and, for a training run, the trajectory store that a
    run of the scenario reads."""
    return (_cohorts(scenario.master_seed, scenario.fl.num_users, scenario.fl.fraction),
            _trajectories(_federation(scenario)) if scenario.train else {})


def _run_group(scenario: Scenario, repeats):
    """Simulate a lockstep group of repeats: each repeat's network pass, then
    one learning pass over all of them. Returns their results and their
    entries of the two stores, by repeat."""
    train_data, test_data = load_corpus(scenario.source, scenario.master_seed)
    # the model trained, or stood in for on timing-only runs: its size sets the payload
    spec = ModelSpec(scenario.model_kind, train_data.input_dim, train_data.num_classes,
                     scenario.hidden_dim)
    reps, shards = zip(*(_network_pass(scenario, r, spec, train_data) for r in repeats))
    if scenario.train:
        _learning_pass(scenario, spec, reps, shards, train_data, test_data)
    cohorts, trajs = _stores(scenario)
    return (list(reps), {r: cohorts[r] for r in repeats},
            {r: trajs[r] for r in repeats if r in trajs})


def _groups(scenario: Scenario, jobs: int) -> list[list[int]]:
    """The lockstep groups: contiguous runs of repeats of near-equal size, as
    few as keep every group's cohorts within LANE_CEILING lanes (a group
    holds at least one repeat). Over several processes the count is rounded
    up to a multiple of the processes the repeats can keep busy, so each
    trains an equal share."""
    per_group = max(1, LANE_CEILING // cohort_size(scenario.fl.num_users,
                                                   scenario.fl.fraction))
    count = -(-scenario.repeats // per_group)
    workers = min(jobs, scenario.repeats)
    count = min(scenario.repeats, -(-count // workers) * workers)
    return [chunk.tolist() for chunk in np.array_split(np.arange(scenario.repeats), count)]


# No production path calls this; perfbench/launch.py binds it by name.
def run_repeat(scenario: Scenario, repeat: int) -> RepeatResult:
    """Simulate one seeded instance of the scenario."""
    return _run_group(scenario, [repeat])[0][0]


def run_scenario(scenario: Scenario, jobs: int = 1) -> ExperimentResult:
    """Run all repeats in lockstep groups, optionally in parallel processes.

    The result is deterministic for a fixed master seed regardless of
    `jobs`, of the grouping and of what earlier runs stored: every repeat
    derives its own seed streams, every lane of a lockstep call equals a
    lone client's training bit for bit, and the merge is by repeat index.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    groups = _groups(scenario, jobs)
    if jobs == 1 or len(groups) == 1:
        results = [_run_group(scenario, group)[0] for group in groups]
    else:
        # imported here: the pool machinery is a large share of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
            outputs = list(pool.map(_run_group, [scenario] * len(groups), groups))
        cohorts, trajs = _stores(scenario)
        for _, group_cohorts, group_trajs in outputs:
            for cohort in (c for drawn in group_cohorts.values() for c in drawn):
                cohort.flags.writeable = False
            cohorts.update(group_cohorts)
            trajs.update(group_trajs)
        results = [reps for reps, _, _ in outputs]
    return ExperimentResult([rep for group in results for rep in group])
