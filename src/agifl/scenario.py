"""Experiment orchestration.

A Scenario fixes everything about one experiment: the topology form (which
layer hosts the server and the clients), the training task and federation
settings, the channel and energy constants, the server placement scheme
and the energy budget. `run_scenario` executes `repeats` independent
instances with seeds derived from the master seed. Each repeat places the
server and then runs the round loop (`run_repeat`):

    select cohort -> downlink broadcast -> parallel local compute + uplink
    -> account energy -> aggregate -> evaluate

It halts on the round budget or when the ledger refuses a round because
the monitored entity's energy budget would be exceeded (before that round
trains). That entity's running total never falls, so a run under a
smaller budget keeps exactly the rounds of this run whose recorded total
is within it: `best_accuracy_within` reads any smaller budget off one run.

Every per-user time and energy is constant within a repeat, so
`per_user_arrays` builds them once, equal entry for entry to the scalar
models of `channel` and `energy`; a round is then a gather over its cohort
and a max each for the slowest client and the slowest broadcast recipient.
Repeats are embarrassingly parallel; `ExperimentResult.mean` averages a
per-round field over the rounds all repeats completed, so every mean covers
exactly `repeats` instances.
"""

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
    input_dim: int = 784
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
        if not 0 < self.cpu_freq_range[0] <= self.cpu_freq_range[1]:
            raise ValueError("cpu_freq_range must satisfy 0 < min <= max")
        for name in ("initial_flight_energy", "ground_height", "kappa"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
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
        if user_xy.shape != (num_users, 2):
            raise ValueError("user_positions shape does not match num_users")
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
    selected: tuple[int, ...]
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


def per_user_arrays(scenario: Scenario, repeat: int, topo: Topology, shards,
                    payload_bits: int, bits_per_sample: int):
    """Each user's compute + upload time, upload energy, compute energy and
    broadcast receive time, fixed within a repeat as the cohort size (so the
    uplink sub-band) is. Squares use Python's `**` as `link_rate` does (NumPy's
    can differ in the last bit); the rest keeps the scalar models' operation order."""
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
                          * scenario.cycles_per_bit for size in map(len, shards)), float, n)
    e_comp = (np.fromiter((user_compute_energy(f, c, scenario.kappa)
                           for f, c in zip(cpu.tolist(), cycles.tolist())), float, n)
              if scenario.include_user_compute_energy else np.zeros(n))
    t_recv = tx_time(payload_bits, link_rates(channel.uav_downlink_bandwidth,
                                              scenario.uav.tx_power, dist_sq, channel))
    return cycles / cpu + t_up, channel.user_tx_power * t_up, e_comp, t_recv


def run_repeat(scenario: Scenario, repeat: int) -> RepeatResult:
    """Simulate one seeded instance of the scenario."""
    seed, fl, channel = scenario.master_seed, scenario.fl, scenario.channel
    train_data, test_data = load_corpus(scenario.source, seed)

    topo = build_topology(scenario, _rng(seed, repeat, "positions"))
    topo.placement = place_server(scenario, topo, _rng(seed, repeat, "placement"))
    shards = partition(train_data, fl.num_users,
                       scheme=scenario.partition_scheme,
                       shards_per_user=scenario.shards_per_user,
                       seed=child_seed(seed, repeat, "partition"))
    # the model trained, or stood in for on timing-only runs: its size sets the payload
    spec = ModelSpec(scenario.model_kind, train_data.input_dim, train_data.num_classes,
                     scenario.hidden_dim, init_seed=child_seed(seed, repeat, "init"))
    payload_bits = param_count(spec) * channel.payload_bits_per_param
    master = child_seed(seed, repeat)
    params = init_model(spec) if scenario.train else None

    t_client, e_tx, e_comp, t_recv = per_user_arrays(
        scenario, repeat, topo, shards, payload_bits, train_data.bits_per_sample)
    p_hover = np.where(topo.user_alt > 0, scenario.uav.propulsion_power, 0.0)

    ledger = EnergyLedger(fl.num_users, scenario.energy_budget, scenario.budget_entity)
    ledger.charge("uav", scenario.initial_flight_energy)
    metrics: list[RoundMetrics] = []
    halt_reason = "max_rounds"

    for rnd in range(fl.max_rounds):
        selected = select_clients(fl.num_users, fl.fraction, _rng(master, rnd, "select"))
        recipients = slice(None) if scenario.broadcast_all else selected
        t_down = float(t_recv[recipients].max())  # = payload / lowest rate, exactly
        duration = t_down + float(t_client[selected].max())
        server = scenario.uav.propulsion_power * duration + scenario.uav.tx_power * t_down
        if not ledger.add_round(server, selected, e_tx[selected], e_comp[selected],
                                p_hover[selected] * duration):
            halt_reason = "budget"
            break

        test_loss = test_acc = math.nan
        if scenario.train:
            params = run_round(params, fl, shards, spec, train_data, selected,
                               master, rnd)
            if (rnd + 1) % scenario.eval_stride == 0:
                test_loss, test_acc = evaluate(params, spec, test_data.features,
                                               test_data.labels)

        metrics.append(RoundMetrics(
            round=rnd + 1, duration=duration, uav_energy=server,
            cum_uav_energy=ledger.total("uav"), test_loss=test_loss,
            test_acc=test_acc, selected=tuple(selected.tolist()),
            budget_total=ledger.total(scenario.budget_entity)))

    return RepeatResult(repeat=repeat, metrics=metrics, halt_reason=halt_reason,
                        placement=topo.placement, ledger=ledger)


def run_scenario(scenario: Scenario, jobs: int = 1) -> ExperimentResult:
    """Run all repeats, optionally in parallel.

    The result is deterministic for a fixed master seed regardless of
    `jobs`: every repeat derives its own seed streams and the merge is by
    repeat index.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    indices = range(scenario.repeats)
    if jobs == 1 or scenario.repeats == 1:
        repeats = [run_repeat(scenario, r) for r in indices]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, scenario.repeats)) as pool:
            repeats = list(pool.map(run_repeat, [scenario] * scenario.repeats, indices))
    return ExperimentResult(repeats)
