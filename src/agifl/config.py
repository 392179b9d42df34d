"""Run configuration files.

An experiment is described by a flat INI file whose sections mirror the
library modules. Every key is optional and defaults to the reference
case-study values; unknown sections or keys are rejected so typos fail
loudly. dB/dBm quantities carry explicit unit suffixes in their key names
(alpha0_db, noise_dbm) and are converted to linear SI units here, at the
boundary. Command-line overrides of the form section.key=value win over
the file.
"""

import configparser
import math
import os
from dataclasses import dataclass, field

from .channel import ChannelParams, db_to_linear, dbm_to_watts
from .energy import UavProfile
from .fedavg import FlConfig
from .models import Hyperparams
from .placement import Area
from .scenario import BlobSource, IdxSource, Scenario, ShapeSource

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_overrides"]

MNIST_DIR_ENV = "AGIFL_MNIST_DIR"
MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


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


# section -> key -> (parser, default)
_SCHEMA = {
    "scenario": {
        "form": (str, "g2a"),
        "repeats": (int, 20),
        "master_seed": (int, 0),
        "max_rounds": (int, 100),
        "energy_budget_j": (_budget, math.inf),
        "budget_entity": (str, "uav"),
        "placement": (str, "min_sum_dist"),
        "fixed_x_m": (_float, 500.0),
        "fixed_y_m": (_float, 500.0),
        "eval_stride": (int, 1),
        "train": (_bool, True),
        "broadcast_all": (_bool, False),
        "area_width_m": (_float, 1000.0),
        "area_height_m": (_float, 1000.0),
        "ground_height_m": (_float, 10.0),
        "aerial_fraction": (_float, 0.5),
    },
    "fl": {
        "num_users": (int, 100),
        "fraction": (_float, 0.02),
        "learning_rate": (_float, 0.01),
        "local_epochs": (int, 5),
        "batch_size": (int, 10),
    },
    "model": {
        "kind": (str, "logistic"),
        "hidden_dim": (int, 32),
    },
    "data": {
        "source": (str, "blobs"),  # blobs | idx | shape
        "classes": (int, 10),
        "samples_per_class": (int, 600),
        "test_samples_per_class": (int, 100),
        "input_dim": (int, 32),
        "spread": (_float, 0.18),
        "partition": (str, "sharded"),
        "shards_per_user": (int, 2),
        "mnist_dir": (str, ""),
        "num_samples": (int, 60000),  # shape source
    },
    "channel": {
        "bandwidth_hz": (_float, 1e6),
        "alpha0_db": (_float, -50.0),
        "noise_dbm": (_float, -90.0),
        "user_tx_power_w": (_float, 0.1),
        "uav_downlink_bandwidth_hz": (_float, 1e6),
        "payload_bits_per_param": (int, 32),
        "uplink_bandwidth_hz": (_float, 0.0),  # 0 = total bandwidth / cohort
    },
    "uav": {
        "altitude_m": (_float, 100.0),
        "propulsion_power_w": (_float, 100.0),
        "tx_power_w": (_float, 0.01),  # downlink rate and transmit energy
    },
    "energy": {
        "cycles_per_bit": (int, 10),
        "cpu_freq_min_hz": (_float, 1.8e9),
        "cpu_freq_max_hz": (_float, 2.0e9),
        "include_user_compute": (_bool, False),
        "kappa": (_float, 1e-28),
        "initial_flight_energy_j": (_float, 0.0),
    },
    "compare": {
        "budget_grid_j": (str, "25,50,100,200"),
        "budget_repeats": (int, 5),
    },
}


@dataclass
class RunConfig:
    scenario: Scenario
    compare_budgets: list = field(default_factory=list)
    compare_repeats: int = 5


def parse_overrides(pairs) -> dict:
    """Turn ["fl.fraction=0.05", ...] into {("fl", "fraction"): "0.05"}."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form section.key=value")
        key, value = pair.split("=", 1)
        if "." not in key:
            raise ConfigError(f"override key {key!r} must be section.key")
        section, name = key.split(".", 1)
        out[(section.strip(), name.strip())] = value.strip()
    return out


def _read_values(path, overrides):
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    values = {section: dict(defaults) for section, defaults in
              ((s, {k: d for k, (_, d) in keys.items()}) for s, keys in _SCHEMA.items())}

    def assign(section, key, raw, origin):
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section {section!r} in {origin}")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}] of {origin}")
        parse = _SCHEMA[section][key][0]
        try:
            values[section][key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc

    for section in parser.sections():
        for key, raw in parser.items(section):
            assign(section, key, raw, str(path))
    for (section, key), raw in overrides.items():
        assign(section, key, raw, "command line")
    return values


def _build_source(data):
    kind = data["source"]
    if kind == "shape":
        return ShapeSource(num_samples=data["num_samples"],
                           input_dim=data["input_dim"],
                           num_classes=data["classes"])
    if kind == "idx":
        mnist_dir = data["mnist_dir"] or os.environ.get(MNIST_DIR_ENV, "")
        if not mnist_dir:
            raise ConfigError(f"data.source=idx needs data.mnist_dir or {MNIST_DIR_ENV}")
        return IdxSource(*(os.path.join(mnist_dir, name) for name in MNIST_FILES))
    if kind == "blobs":
        return BlobSource(num_classes=data["classes"],
                          samples_per_class=data["samples_per_class"],
                          test_samples_per_class=data["test_samples_per_class"],
                          input_dim=data["input_dim"],
                          spread=data["spread"])
    raise ConfigError(f"unknown data source {kind!r}")


def load_config(path, overrides=None) -> RunConfig:
    """Parse a config file plus overrides into a ready-to-run Scenario."""
    values = _read_values(path, overrides or {})

    ch = values["channel"]
    channel = ChannelParams(
        total_bandwidth=ch["bandwidth_hz"], ref_gain=db_to_linear(ch["alpha0_db"]),
        noise=dbm_to_watts(ch["noise_dbm"]),
        user_tx_power=ch["user_tx_power_w"],
        uav_downlink_bandwidth=ch["uav_downlink_bandwidth_hz"],
        payload_bits_per_param=ch["payload_bits_per_param"],
        uplink_bandwidth_override=ch["uplink_bandwidth_hz"] or None)

    sc, fl, en = values["scenario"], values["fl"], values["energy"]
    try:
        scenario = Scenario(
            fl=FlConfig(num_users=fl["num_users"], fraction=fl["fraction"],
                        hyper=Hyperparams(learning_rate=fl["learning_rate"],
                                          local_epochs=fl["local_epochs"],
                                          batch_size=fl["batch_size"]),
                        max_rounds=sc["max_rounds"]),
            source=_build_source(values["data"]),
            model_kind=values["model"]["kind"],
            hidden_dim=values["model"]["hidden_dim"],
            channel=channel,
            uav=UavProfile(tx_power=values["uav"]["tx_power_w"],
                           propulsion_power=values["uav"]["propulsion_power_w"],
                           altitude=values["uav"]["altitude_m"]),
            area=Area(width=sc["area_width_m"], height=sc["area_height_m"]),
            form=sc["form"],
            placement_scheme=sc["placement"],
            fixed_position=(sc["fixed_x_m"], sc["fixed_y_m"]),
            partition_scheme=values["data"]["partition"],
            shards_per_user=values["data"]["shards_per_user"],
            energy_budget=sc["energy_budget_j"],
            budget_entity=sc["budget_entity"],
            repeats=sc["repeats"],
            master_seed=sc["master_seed"],
            eval_stride=sc["eval_stride"],
            train=sc["train"],
            broadcast_all=sc["broadcast_all"],
            cpu_freq_range=(en["cpu_freq_min_hz"], en["cpu_freq_max_hz"]),
            cycles_per_bit=en["cycles_per_bit"],
            include_user_compute_energy=en["include_user_compute"],
            kappa=en["kappa"],
            initial_flight_energy=en["initial_flight_energy_j"],
            ground_height=sc["ground_height_m"],
            aerial_fraction=sc["aerial_fraction"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    raw_budgets = values["compare"]["budget_grid_j"]
    try:
        budgets = [float(tok) for tok in raw_budgets.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad value for compare.budget_grid_j: {exc}") from exc
    if not all(b > 0 for b in budgets):
        raise ConfigError(f"compare.budget_grid_j must be positive: {raw_budgets!r}")
    if values["compare"]["budget_repeats"] < 1:
        raise ConfigError("compare.budget_repeats must be >= 1")

    return RunConfig(scenario=scenario, compare_budgets=budgets,
                     compare_repeats=values["compare"]["budget_repeats"])
