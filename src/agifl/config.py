"""Run configuration files.

An experiment is described by a flat INI file whose sections mirror the
library modules. Each key sets one field of a `RunConfig`, and every key
left out keeps its dataclass default, so an empty file runs `RunConfig()`;
unknown sections or keys are rejected so typos fail loudly. dB/dBm
quantities carry explicit unit suffixes in their key names (alpha0_db,
noise_dbm) and are converted to linear SI units by their parsers, at the
boundary. Command-line overrides of the form --section.key=value win over
the file; `parse_overrides` is their one parser.
"""

import configparser
import math
import os
from dataclasses import dataclass, fields

from .channel import db_to_linear, dbm_to_watts
from .scenario import BlobSource, IdxSource, Scenario, ShapeSource

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_overrides"]

MNIST_DIR_ENV = "AGIFL_MNIST_DIR"
_SOURCES = {"blobs": BlobSource, "idx": IdxSource, "shape": ShapeSource}


class ConfigError(ValueError):
    pass


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _budget(raw: str) -> float:
    """A float that may be inf, the "no budget" value, but not NaN."""
    value = float(raw)
    if math.isnan(value):
        raise ValueError(f"not a budget: {raw!r} (inf means no budget)")
    return value


def _linear(convert):
    """A dB (dBm) key's parser: `convert` of a finite number, which must not overflow."""
    def parse(raw: str) -> float:
        try:
            return convert(_float(raw))
        except OverflowError:
            raise ValueError(f"{raw!r} overflows a float as a linear value") from None
    return parse


def _source(raw: str) -> type:
    if raw not in _SOURCES:
        raise ValueError(f"unknown data source {raw!r}")
    return _SOURCES[raw]


# section -> key -> (parser, target): the target is the field the value sets,
# a dotted path from RunConfig in which a number indexes a tuple.
_SCHEMA = {
    "scenario": {
        "form": (str, "scenario.form"),
        "repeats": (int, "scenario.repeats"),
        "master_seed": (int, "scenario.master_seed"),
        "max_rounds": (int, "scenario.fl.max_rounds"),
        "energy_budget_j": (_budget, "scenario.energy_budget"),
        "budget_entity": (str, "scenario.budget_entity"),
        "placement": (str, "scenario.placement_scheme"),
        "fixed_x_m": (_float, "scenario.fixed_position.0"),
        "fixed_y_m": (_float, "scenario.fixed_position.1"),
        "eval_stride": (int, "scenario.eval_stride"),
        "train": (_bool, "scenario.train"),
        "broadcast_all": (_bool, "scenario.broadcast_all"),
        "area_width_m": (_float, "scenario.area.width"),
        "area_height_m": (_float, "scenario.area.height"),
        "ground_height_m": (_float, "scenario.ground_height"),
        "aerial_fraction": (_float, "scenario.aerial_fraction"),
    },
    "fl": {
        "num_users": (int, "scenario.fl.num_users"),
        "fraction": (_float, "scenario.fl.fraction"),
        "learning_rate": (_float, "scenario.fl.hyper.learning_rate"),
        "local_epochs": (int, "scenario.fl.hyper.local_epochs"),
        "batch_size": (int, "scenario.fl.hyper.batch_size"),
    },
    "model": {
        "kind": (str, "scenario.model_kind"),
        "hidden_dim": (int, "scenario.hidden_dim"),
    },
    "data": {  # the source's class reads only its own fields
        "source": (_source, "scenario.source.__class__"),
        "classes": (int, "scenario.source.num_classes"),
        "samples_per_class": (int, "scenario.source.samples_per_class"),
        "test_samples_per_class": (int, "scenario.source.test_samples_per_class"),
        "input_dim": (int, "scenario.source.input_dim"),
        "spread": (_float, "scenario.source.spread"),
        "partition": (str, "scenario.partition_scheme"),
        "shards_per_user": (int, "scenario.shards_per_user"),
        "mnist_dir": (str, "scenario.source.directory"),  # else AGIFL_MNIST_DIR
        "num_samples": (int, "scenario.source.num_samples"),
    },
    "channel": {
        "bandwidth_hz": (_float, "scenario.channel.total_bandwidth"),
        "alpha0_db": (_linear(db_to_linear), "scenario.channel.ref_gain"),
        "noise_dbm": (_linear(dbm_to_watts), "scenario.channel.noise"),
        "user_tx_power_w": (_float, "scenario.channel.user_tx_power"),
        "uav_downlink_bandwidth_hz": (_float, "scenario.channel.uav_downlink_bandwidth"),
        "payload_bits_per_param": (int, "scenario.channel.payload_bits_per_param"),
    },
    "uav": {
        "altitude_m": (_float, "scenario.uav.altitude"),
        "propulsion_power_w": (_float, "scenario.uav.propulsion_power"),
        "tx_power_w": (_float, "scenario.uav.tx_power"),  # downlink rate and transmit energy
    },
    "energy": {
        "cycles_per_bit": (int, "scenario.cycles_per_bit"),
        "cpu_freq_min_hz": (_float, "scenario.cpu_freq_range.0"),
        "cpu_freq_max_hz": (_float, "scenario.cpu_freq_range.1"),
        "kappa": (_float, "scenario.kappa"),
        "initial_flight_energy_j": (_float, "scenario.initial_flight_energy"),
    },
    "compare": {
        "budget_grid_j": (lambda raw: tuple(float(tok) for tok in raw.split(",")
                                            if tok.strip()), "compare_budgets"),
        "budget_repeats": (int, "compare_repeats"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """A scenario plus the budget sweep of `compare-placement`'s panel B."""

    scenario: Scenario = Scenario()
    compare_budgets: tuple[float, ...] = (25.0, 50.0, 100.0, 200.0)
    compare_repeats: int = 5

    def __post_init__(self):
        if not all(b > 0 for b in self.compare_budgets):
            raise ValueError(f"compare.budget_grid_j must be positive: {self.compare_budgets}")
        if self.compare_repeats < 1:
            raise ValueError("compare.budget_repeats must be >= 1")


def parse_overrides(tokens) -> dict:
    """Turn command-line tokens ["--fl.fraction=0.05", ...] into
    {("fl", "fraction"): "0.05"}; any other token is a ConfigError."""
    out = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not (key.startswith("--") and eq and "." in key):
            raise ConfigError(f"unrecognized argument {token!r} "
                              "(overrides look like --section.key=value)")
        section, name = key[2:].split(".", 1)
        out[(section.strip(), name.strip())] = value.strip()
    return out


def _read_values(path, overrides) -> dict:
    """The parsed value of every key given, by its target."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    values = {}

    def assign(section, key, raw, origin):
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section {section!r} in {origin}")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}] of {origin}")
        parse, target = _SCHEMA[section][key]
        try:
            values[target] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc

    for section in parser.sections():
        for key, raw in parser.items(section):
            assign(section, key, raw, str(path))
    for (section, key), raw in overrides.items():
        assign(section, key, raw, "command line")
    return values


def _build(default, given):
    """`default` with the given values: `given` is a leaf value, or a tree of
    field name (or tuple index) -> subtree. Each dataclass is built once, from
    the given fields of its class (the tree's `__class__`, else the
    default's), and its own defaults fill the rest."""
    if not isinstance(given, dict):
        return given
    if isinstance(default, tuple):
        return tuple(given.get(str(i), item) for i, item in enumerate(default))
    cls = given.get("__class__", type(default))
    return cls(**{f.name: _build(getattr(default, f.name, None), given[f.name])
                  for f in fields(cls) if f.name in given})


def load_config(path, overrides=None) -> RunConfig:
    """Parse a config file plus overrides into a ready-to-run RunConfig."""
    values = _read_values(path, overrides or {})
    tree = {}
    for target, value in values.items():
        *parents, name = target.split(".")
        node = tree
        for parent in parents:
            node = node.setdefault(parent, {})
        node[name] = value

    source = tree.get("scenario", {}).get("source", {})
    if source.get("__class__") is IdxSource:
        source["directory"] = source.get("directory") or os.environ.get(MNIST_DIR_ENV, "")
        if not source["directory"]:
            raise ConfigError(f"data.source=idx needs data.mnist_dir or {MNIST_DIR_ENV}")
    try:
        return _build(RunConfig(), tree)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
