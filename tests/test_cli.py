import configparser
import contextlib
import dataclasses
import gc
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agifl import scenario as scenario_module
from agifl.channel import ChannelParams
from agifl.cli import main
from agifl.config import _SCHEMA, ConfigError, RunConfig, _float, load_config, parse_overrides
from agifl.scenario import (IDX_FILES, BlobSource, IdxSource, Scenario, ShapeSource,
                            load_corpus, load_source, run_scenario)

SMALL_CONFIG = """\
[scenario]
repeats = 1
max_rounds = 2
master_seed = 3

[fl]
num_users = 6
fraction = 0.5
local_epochs = 1

[data]
source = blobs
classes = 3
samples_per_class = 20
test_samples_per_class = 8
input_dim = 4
spread = 0.1
partition = iid
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG)
    return path


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHAPE = {("data", "source"): "shape", ("scenario", "train"): "false"}

# every config key: a valid non-default value, the RunConfig field it must
# set (written out here, not read from the schema), and the keys it needs
KEY_FIELDS = {
    ("scenario", "form"): ("a2g", "scenario.form", {}),
    ("scenario", "repeats"): ("3", "scenario.repeats", {}),
    ("scenario", "master_seed"): ("4", "scenario.master_seed", {}),
    ("scenario", "max_rounds"): ("7", "scenario.fl.max_rounds", {}),
    ("scenario", "energy_budget_j"): ("100", "scenario.energy_budget", {}),
    ("scenario", "budget_entity"): ("user:0", "scenario.budget_entity", {}),
    ("scenario", "placement"): ("random", "scenario.placement_scheme", {}),
    ("scenario", "fixed_x_m"): ("100", "scenario.fixed_position.0", {}),
    ("scenario", "fixed_y_m"): ("200", "scenario.fixed_position.1", {}),
    ("scenario", "eval_stride"): ("2", "scenario.eval_stride", {}),
    ("scenario", "train"): ("false", "scenario.train", {}),
    ("scenario", "broadcast_all"): ("true", "scenario.broadcast_all", {}),
    ("scenario", "area_width_m"): ("600", "scenario.area.width", {}),
    ("scenario", "area_height_m"): ("700", "scenario.area.height", {}),
    ("scenario", "ground_height_m"): ("20", "scenario.ground_height", {}),
    ("scenario", "aerial_fraction"): ("0.25", "scenario.aerial_fraction", {}),
    ("fl", "num_users"): ("50", "scenario.fl.num_users", {}),
    ("fl", "fraction"): ("0.1", "scenario.fl.fraction", {}),
    ("fl", "learning_rate"): ("0.05", "scenario.fl.hyper.learning_rate", {}),
    ("fl", "local_epochs"): ("2", "scenario.fl.hyper.local_epochs", {}),
    ("fl", "batch_size"): ("5", "scenario.fl.hyper.batch_size", {}),
    ("model", "kind"): ("mlp", "scenario.model_kind", {}),
    ("model", "hidden_dim"): ("16", "scenario.hidden_dim", {}),
    ("data", "source"): ("shape", "scenario.source.__class__",
                         {("scenario", "train"): "false"}),
    ("data", "classes"): ("5", "scenario.source.num_classes", {}),
    ("data", "samples_per_class"): ("50", "scenario.source.samples_per_class", {}),
    ("data", "test_samples_per_class"): ("20", "scenario.source.test_samples_per_class", {}),
    ("data", "input_dim"): ("8", "scenario.source.input_dim", {}),
    ("data", "spread"): ("0.3", "scenario.source.spread", {}),
    ("data", "partition"): ("iid", "scenario.partition_scheme", {}),
    ("data", "shards_per_user"): ("3", "scenario.shards_per_user", {}),
    ("data", "mnist_dir"): ("/data/mnist", "scenario.source.directory",
                            {("data", "source"): "idx"}),
    ("data", "num_samples"): ("1000", "scenario.source.num_samples", SHAPE),
    ("channel", "bandwidth_hz"): ("2e6", "scenario.channel.total_bandwidth", {}),
    ("channel", "alpha0_db"): ("-40", "scenario.channel.ref_gain", {}),
    ("channel", "noise_dbm"): ("-80", "scenario.channel.noise", {}),
    ("channel", "user_tx_power_w"): ("0.2", "scenario.channel.user_tx_power", {}),
    ("channel", "uav_downlink_bandwidth_hz"): ("2e6",
                                               "scenario.channel.uav_downlink_bandwidth", {}),
    ("channel", "payload_bits_per_param"): ("16", "scenario.channel.payload_bits_per_param",
                                            {}),
    ("uav", "altitude_m"): ("50", "scenario.uav.altitude", {}),
    ("uav", "propulsion_power_w"): ("80", "scenario.uav.propulsion_power", {}),
    ("uav", "tx_power_w"): ("0.02", "scenario.uav.tx_power", {}),
    ("energy", "cycles_per_bit"): ("20", "scenario.cycles_per_bit", {}),
    ("energy", "cpu_freq_min_hz"): ("1.5e9", "scenario.cpu_freq_range.0", {}),
    ("energy", "cpu_freq_max_hz"): ("2.5e9", "scenario.cpu_freq_range.1", {}),
    ("energy", "kappa"): ("1e-27", "scenario.kappa", {}),
    ("energy", "initial_flight_energy_j"): ("5", "scenario.initial_flight_energy", {}),
    ("compare", "budget_grid_j"): ("10,20", "compare_budgets", {}),
    ("compare", "budget_repeats"): ("3", "compare_repeats", {}),
}


def _fields(obj, path=""):
    """Dotted path -> value of every leaf of a (nested) RunConfig, with each
    dataclass's class under `__class__` and each tuple entry under its index."""
    if dataclasses.is_dataclass(obj):
        out = {f"{path}__class__": type(obj)}
        for f in dataclasses.fields(obj):
            out.update(_fields(getattr(obj, f.name), f"{path}{f.name}."))
        return out
    if isinstance(obj, tuple):
        return {k: v for i, item in enumerate(obj)
                for k, v in _fields(item, f"{path}{i}.").items()}
    return {path[:-1]: obj}


class TestConfig:
    def test_empty_file_and_case_study_are_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert load_config(path) == load_config(CONFIGS / "case_study.ini") == RunConfig()

    def test_case_study_names_every_key(self):
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=(";", "#"))
        parser.read(CONFIGS / "case_study.ini")
        named = {(s, k) for s in parser.sections() for k in parser[s]}
        assert named == {(s, k) for s, keys in _SCHEMA.items() for k in keys}

    def test_every_key_has_a_field_case(self):
        assert set(KEY_FIELDS) == {(s, k) for s, keys in _SCHEMA.items() for k in keys}

    def test_every_field_is_the_target_of_exactly_one_key(self):
        # the converse: no field only Python can set; a key whose target is a
        # tuple (compare_budgets) sets each of its entries
        targets = [target for keys in _SCHEMA.values() for _, target in keys.values()]
        for source in (BlobSource(), IdxSource("/data/mnist"), ShapeSource()):
            config = RunConfig(scenario=Scenario(source=source, train=False))
            for leaf in _fields(config):
                if not leaf.endswith("__class__"):
                    keys = [t for t in targets if leaf == t or leaf.startswith(t + ".")]
                    assert len(keys) == 1, (leaf, keys)

    @pytest.mark.parametrize("key", list(KEY_FIELDS), ids=".".join)
    def test_each_key_sets_exactly_its_field(self, key, tmp_path, monkeypatch):
        monkeypatch.setenv("AGIFL_MNIST_DIR", "/env/mnist")  # an idx source's directory
        value, target, base = KEY_FIELDS[key]
        path = tmp_path / "empty.ini"
        path.write_text("")
        before = _fields(load_config(path, base))
        after = _fields(load_config(path, {**base, key: value}))
        # a field only one of two source classes has is not compared
        changed = {p for p in before.keys() & after.keys() if before[p] != after[p]}
        assert changed and all(p == target or p.startswith(target + ".")
                               for p in changed), changed

    def test_defaults_mirror_case_study(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        sc = load_config(path).scenario
        assert sc.fl.num_users == 100
        assert sc.fl.fraction == 0.02
        assert sc.fl.hyper.learning_rate == 0.01
        assert sc.fl.hyper.local_epochs == 5
        assert sc.fl.hyper.batch_size == 10
        assert sc.channel.total_bandwidth == 1e6
        assert sc.channel.ref_gain == ChannelParams().ref_gain
        assert sc.channel.noise == ChannelParams().noise
        assert sc.channel.user_tx_power == 0.1
        assert sc.uav.tx_power == 0.01
        assert sc.uav.propulsion_power == 100.0
        assert sc.uav.altitude == 100.0
        assert sc.repeats == 20
        assert math.isinf(sc.energy_budget)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text("[channel]\nbandwith_hz = 1e6\n")
        with pytest.raises(ConfigError, match="bandwith_hz"):
            load_config(path)

    def test_server_tx_power_has_one_key(self, tmp_path):
        path = tmp_path / "old.ini"
        path.write_text("[channel]\nuav_tx_power_w = 0.01\n")
        with pytest.raises(ConfigError, match="uav_tx_power_w"):
            load_config(path)

    @pytest.mark.parametrize("key", ["alpha0_linear", "noise_w"])
    def test_channel_constants_have_one_key(self, key, tmp_path):
        path = tmp_path / "old.ini"
        path.write_text(f"[channel]\n{key} = 0\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)

    def test_shape_source_derives_bits_per_sample(self, tmp_path):
        path = tmp_path / "old.ini"
        path.write_text("[data]\nsource = shape\nbits_per_sample = 0\n")
        with pytest.raises(ConfigError, match="unknown key 'bits_per_sample'"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text("[chanel]\nbandwidth_hz = 1e6\n")
        with pytest.raises(ConfigError, match="chanel"):
            load_config(path)

    def test_db_suffixed_values_convert(self, tmp_path):
        path = tmp_path / "units.ini"
        path.write_text("[channel]\nalpha0_db = -40\nnoise_dbm = -80\n")
        sc = load_config(path).scenario
        assert sc.channel.ref_gain == pytest.approx(1e-4)
        assert sc.channel.noise == pytest.approx(1e-11)

    def test_overrides_win_over_file(self, config_path):
        cfg = load_config(config_path, {("fl", "fraction"): "1.0"})
        assert cfg.scenario.fl.fraction == 1.0

    def test_bad_override_value(self, config_path):
        with pytest.raises(ConfigError, match="fl.fraction"):
            load_config(config_path, {("fl", "fraction"): "lots"})


class TestRunCommand:
    def test_smoke_run(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        rep = (out / "min_sum_dist_rep00.csv").read_text().splitlines()
        assert rep[0] == ("round,duration_s,uav_energy_j,cum_uav_energy_j,"
                          "test_loss,test_acc,selected")
        assert len(rep) == 3  # header + 2 rounds
        assert (out / "min_sum_dist_mean.csv").exists()
        assert "run: scheme=min_sum_dist" in capsys.readouterr().out

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[channel]\nbandwith = 1e6\n")
        assert main(["run", str(path)]) == 1
        assert "bandwith" in capsys.readouterr().err

    def test_missing_mnist_exits_2(self, tmp_path, capsys):
        path = tmp_path / "idx.ini"
        path.write_text(f"[data]\nsource = idx\nmnist_dir = {tmp_path}/nope\n"
                        "[scenario]\ntrain = false\nrepeats = 1\nmax_rounds = 1\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: dataset:")
        assert f"{tmp_path}/nope" in err[0]
        # a corrupt idx file is an I/O failure too
        imgs = tmp_path / "bad-images"
        imgs.write_bytes(b"\x00\x00\x08\x02" + b"\x00" * 16)
        lbls = tmp_path / "bad-labels"
        lbls.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 4)
        not_mnist = tmp_path / "mnist"
        not_mnist.mkdir()
        for name in IDX_FILES[0::2]:
            (not_mnist / name).write_bytes(imgs.read_bytes())
        for name in IDX_FILES[1::2]:
            (not_mnist / name).write_bytes(lbls.read_bytes())
        path.write_text(f"[data]\nsource = idx\nmnist_dir = {not_mnist}\n"
                        "[scenario]\nrepeats = 1\nmax_rounds = 1\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "dataset" in capsys.readouterr().err

    def test_idx_without_mnist_dir_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("AGIFL_MNIST_DIR", raising=False)
        path = tmp_path / "idx.ini"
        path.write_text("[data]\nsource = idx\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "mnist_dir" in capsys.readouterr().err

    def test_seed_flag_reproduces_bytes(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config_path), "--seed", "7", "--out", str(out_a)]) == 0
        assert main(["run", str(config_path), "--seed", "7", "--out", str(out_b)]) == 0
        for name in ("min_sum_dist_rep00.csv", "min_sum_dist_mean.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_inline_override_flag(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out),
                     "--scenario.max_rounds=1"]) == 0
        rep = (out / "min_sum_dist_rep00.csv").read_text().splitlines()
        assert len(rep) == 2

    def test_lowest_cpu_frequency_bound_alone_is_not_refused(self, tmp_path, capsys):
        # the slowest round is read off the drawn frequencies, none of them near
        # a 1e-310 Hz lower end, so every duration and energy is finite
        out = tmp_path / "out"
        assert main(["run", str(CONFIGS / "quick.ini"), "--out", str(out),
                     "--scenario.train=false", "--energy.cpu_freq_min_hz=1e-310"]) == 0
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 4  # three repeats and the mean
        for csv in csvs:
            rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
            assert rows and all(math.isfinite(float(v)) for row in rows for v in row[1:4])

    def test_unknown_flag_exits_1(self, config_path, capsys):
        assert main(["run", str(config_path), "--frobnicate"]) == 1

    def test_summary_counts_halt_reasons(self, config_path, tmp_path, capsys):
        overrides = ["--scenario.repeats=4", "--scenario.max_rounds=6",
                     "--scenario.placement=random", "--scenario.energy_budget_j=1"]
        assert main(["run", str(config_path), "--out", str(tmp_path / "o")]
                    + overrides) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        fields = dict(token.split("=", 1) for token in line.split()[1:])
        sc = load_config(config_path, parse_overrides(overrides)).scenario
        reasons = run_scenario(sc).halt_reasons
        assert set(reasons) == {"budget", "max_rounds"}  # a mixed halt
        assert fields["halt"] == reasons[0]
        assert fields["halts"] == (f"budget:{reasons.count('budget')},"
                                   f"max_rounds:{reasons.count('max_rounds')}")

    @pytest.mark.parametrize("halt", ["--scenario.max_rounds=0", "--scenario.energy_budget_j=1"])
    def test_summary_energy_before_a_common_round_is_the_flight_energy(self, halt, tmp_path,
                                                                      capsys):
        # no round is common to the repeats (none ran, or the budget refused
        # round 1), so the server's mean total is where every ledger starts
        assert main(["run", str(CONFIGS / "quick.ini"), "--out", str(tmp_path),
                     "--energy.initial_flight_energy_j=5", halt]) == 0
        fields = dict(token.split("=", 1) for token in capsys.readouterr().out.split()[1:])
        assert fields["rounds"] == "0"
        assert fields["mean_cum_uav_energy_j"] == "5"


@pytest.fixture
def loads(monkeypatch):
    """Each `load_source` call's arguments, from an empty corpus cache on."""
    calls = []

    def counting(source, seed):
        calls.append((source, seed))
        return load_source(source, seed)

    monkeypatch.setattr(scenario_module, "load_source", counting)
    load_corpus.cache_clear()
    yield calls
    load_corpus.cache_clear()


class TestInvalidInputExits1:
    """Invalid input exits 1 with one error line and writes no output
    directory, whether the config, the partition or a run refuses it."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["run", "quick.ini", "--scenario.budget_entity=uva",
                      "--scenario.energy_budget_j=5"], "unknown energy entity 'uva'",
                     id="misspelt-entity"),
        pytest.param(["run", "quick.ini", "--scenario.budget_entity=user:20"],
                     "unknown energy entity 'user:20'", id="user-out-of-range"),
        pytest.param(["run", "quick.ini", "--energy.cycles_per_bit=0"],
                     "cycles_per_bit", id="zero-cycles-per-bit"),
        pytest.param(["run", "quick.ini", "--energy.cpu_freq_min_hz=-1"],
                     "cpu_freq_range", id="negative-cpu-freq"),
        pytest.param(["run", "quick.ini", "--fl.num_users=500"],
                     "exceeds sample count", id="more-users-than-samples"),
        pytest.param(["run", "case_study.ini", "--data.source=shape",
                      "--scenario.train=false", "--fl.num_users=50000"],
                     "too small for the requested sharding", id="too-few-shards"),
        pytest.param(["compare-placement", "quick.ini", "--fl.num_users=500"],
                     "exceeds sample count", id="compare-infeasible-partition"),
        pytest.param(["run", "no_such_config.ini"], "cannot read config",
                     id="missing-config"),
        pytest.param(["compare-placement", "quick.ini", "--compare.budget_grid_j=0,5"],
                     "compare.budget_grid_j must be positive", id="compare-zero-budget"),
        pytest.param(["compare-placement", "quick.ini", "--compare.budget_grid_j=-3"],
                     "compare.budget_grid_j must be positive", id="compare-negative-budget"),
        pytest.param(["compare-placement", "quick.ini", "--compare.budget_repeats=0"],
                     "compare.budget_repeats must be >= 1", id="compare-zero-repeats"),
        pytest.param(["run", "quick.ini", "--model.kind=mpl"],
                     "unknown model kind 'mpl'", id="unknown-model-kind"),
        pytest.param(["run", "quick.ini", "--model.kind=mlp", "--model.hidden_dim=0"],
                     "hidden_dim must be >= 1 for mlp", id="mlp-without-hidden-layer"),
        pytest.param(["run", "quick.ini", "--set", "fl.fraction=0.5"],
                     "unrecognized argument '--set'", id="removed-set-option"),
        pytest.param(["run", "quick.ini", "--scenario.energy_budget_j=nan"],
                     "bad value for scenario.energy_budget_j", id="nan-budget"),
        pytest.param(["run", "quick.ini", "--uav.altitude_m=nan"],
                     "bad value for uav.altitude_m: not a finite number", id="nan-altitude"),
        pytest.param(["run", "quick.ini", "--uav.altitude_m=inf"],
                     "bad value for uav.altitude_m: not a finite number", id="inf-altitude"),
        pytest.param(["run", "quick.ini", "--channel.bandwidth_hz=nan"],
                     "bad value for channel.bandwidth_hz: not a finite number",
                     id="nan-bandwidth"),
        pytest.param(["run", "quick.ini", "--channel.bandwidth_hz=inf"],
                     "bad value for channel.bandwidth_hz: not a finite number",
                     id="inf-bandwidth"),
        pytest.param(["run", "quick.ini", "--scenario.area_width_m=nan"],
                     "bad value for scenario.area_width_m: not a finite number",
                     id="nan-area-width"),
        pytest.param(["run", "quick.ini", "--scenario.area_width_m=inf"],
                     "bad value for scenario.area_width_m: not a finite number",
                     id="inf-area-width"),
        pytest.param(["run", "quick.ini", "--scenario.train=false", "--data.source=shape",
                      "--scenario.area_width_m=1e200"],
                     "squared extent overflows", id="overflowing-area-width"),
        pytest.param(["run", "quick.ini", "--scenario.form=a2g",
                      "--scenario.ground_height_m=1e160"],
                     "squared extent overflows", id="overflowing-ground-height"),
        pytest.param(["run", "quick.ini", "--scenario.train=false", "--data.source=shape",
                      "--scenario.area_width_m=1e150"], "rate is zero", id="zero-rate-area"),
        pytest.param(["run", "quick.ini", "--scenario.train=false", "--uav.altitude_m=1e150"],
                     "rate is zero", id="zero-rate-altitude"),
        pytest.param(["run", "quick.ini", "--scenario.train=false", "--channel.noise_dbm=300"],
                     "rate is zero", id="zero-rate-noise"),
        pytest.param(["run", "quick.ini", "--scenario.train=false", "--scenario.placement=fixed",
                      "--scenario.fixed_x_m=1e200"],
                     "squared extent overflows", id="overflowing-fixed-position"),
        pytest.param(["run", "quick.ini", "--channel.bandwidth_hz=-1"],
                     "total_bandwidth must be positive", id="negative-bandwidth"),
        pytest.param(["run", "quick.ini", "--channel.user_tx_power_w=0"],
                     "user_tx_power must be positive", id="zero-user-tx-power"),
        pytest.param(["run", "quick.ini", "--channel.payload_bits_per_param=0"],
                     "payload_bits_per_param must be >= 1", id="zero-payload-bits"),
        # the sub-band is bandwidth_hz over the cohort size; the key that overrode it is gone
        pytest.param(["run", "quick.ini", "--channel.uplink_bandwidth_hz=-5"],
                     "unknown key 'uplink_bandwidth_hz' in section [channel]",
                     id="negative-uplink-bandwidth"),
        # log2(1 + snr) <= 1024 at a finite SNR: from 2**1014 Hz on a rate can overflow
        pytest.param(["run", "quick.ini", "--scenario.train=false",
                      "--channel.uav_downlink_bandwidth_hz=1e308"],
                     "uav_downlink_bandwidth must be below 2**1014 Hz",
                     id="overflowing-downlink-rate"),
        pytest.param(["run", "quick.ini", "--scenario.train=false",
                      "--channel.bandwidth_hz=1e308"],
                     "total_bandwidth must be below 2**1014 Hz", id="overflowing-uplink-rate"),
        pytest.param(["run", "quick.ini", "--data.classes=1"],
                     "blob source needs at least 2 classes", id="one-blob-class"),
        pytest.param(["run", "quick.ini", "--data.spread=0"],
                     "blob source needs a positive spread", id="zero-spread"),
        pytest.param(["run", "quick.ini", "--data.samples_per_class=0"],
                     "sample per class", id="zero-samples-per-class"),
        pytest.param(["run", "quick.ini", "--data.input_dim=0"],
                     "blob source needs input_dim >= 1", id="zero-blob-input-dim"),
        pytest.param(["run", "quick.ini", "--data.source=shape", "--scenario.train=false",
                      "--data.num_samples=-5"],
                     "shape source needs 2 <= classes <= num_samples",
                     id="negative-shape-samples"),
        pytest.param(["run", "quick.ini", "--data.source=shape", "--scenario.train=false",
                      "--data.num_samples=20", "--data.classes=30"],
                     "shape source needs 2 <= classes <= num_samples",
                     id="more-shape-classes-than-samples"),
        pytest.param(["run", "quick.ini", "--data.source=shape", "--scenario.train=false",
                      "--data.input_dim=0"],
                     "shape source needs input_dim >= 1", id="zero-shape-input-dim"),
        pytest.param(["run", "quick.ini", "--energy.initial_flight_energy_j=-3"],
                     "initial_flight_energy must be >= 0", id="negative-flight-energy"),
        pytest.param(["run", "quick.ini", "--energy.kappa=-1"],
                     "kappa must be >= 0", id="negative-kappa"),
        pytest.param(["run", "quick.ini", "--scenario.form=mixed",
                      "--scenario.aerial_fraction=1.5"],
                     "aerial_fraction must be in [0, 1]", id="aerial-fraction-above-1"),
        pytest.param(["run", "quick.ini", "--scenario.form=mixed",
                      "--scenario.aerial_fraction=-1"],
                     "aerial_fraction must be in [0, 1]", id="negative-aerial-fraction"),
        pytest.param(["run", "quick.ini", "--scenario.form=a2g",
                      "--scenario.ground_height_m=-10"],
                     "ground_height must be >= 0", id="server-below-ground"),
        pytest.param(["run", "quick.ini", "--scenario.train=false",
                      "--channel.uav_downlink_bandwidth_hz=1e-320"],
                     "repeat 0 takes an infinite time or energy", id="infinite-downlink-time"),
        pytest.param(["run", "quick.ini", "--scenario.train=false",
                      "--channel.bandwidth_hz=1e-320"],
                     "repeat 0 takes an infinite time or energy", id="infinite-uplink-time"),
        pytest.param(["run", "quick.ini", "--scenario.train=false",
                      "--energy.cpu_freq_min_hz=1e199", "--energy.cpu_freq_max_hz=1e200",
                      "--energy.kappa=1e-28"],
                     "cpu_freq_range must satisfy", id="overflowing-cpu-freq-square"),
        pytest.param(["run", "quick.ini", "--scenario.train=false", "--energy.kappa=1e300"],
                     "repeat 0 takes an infinite time or energy",
                     id="overflowing-compute-energy"),
        # integers too large for a float make an infinite round
        pytest.param(["run", "quick.ini", "--scenario.train=false",
                      f"--channel.payload_bits_per_param={10 ** 400}"],
                     "repeat 0 takes an infinite time or energy", id="overflowing-payload-bits"),
        pytest.param(["run", "quick.ini", "--scenario.train=false",
                      f"--energy.cycles_per_bit={10 ** 400}"],
                     "repeat 0 takes an infinite time or energy", id="overflowing-cycles-per-bit"),
        pytest.param(["run", "quick.ini", "--scenario.train=false",
                      f"--fl.local_epochs={10 ** 400}"],
                     "repeat 0 takes an infinite time or energy", id="overflowing-local-epochs"),
        # every round's energy is finite, but not the running totals of 20 rounds
        pytest.param(["run", "quick.ini", "--scenario.train=false",
                      "--uav.propulsion_power_w=1e308", "--channel.bandwidth_hz=1e4"],
                     "or 20 of them over 3 repeats overflow a total",
                     id="overflowing-running-totals"),
        pytest.param(["run", "quick.ini", "--seed", str(2 ** 128)],
                     "master_seed must be in [-2**127, 2**127)", id="overflowing-seed-flag"),
        pytest.param(["run", "quick.ini", f"--scenario.master_seed={-2 ** 127 - 1}"],
                     "master_seed must be in [-2**127, 2**127)", id="overflowing-master-seed"),
        # a power at which the nearest user's SNR overflows
        pytest.param(["run", "quick.ini", "--scenario.train=false", "--uav.tx_power_w=1e308"],
                     "link endpoints coincide: user", id="overflowing-server-snr"),
        pytest.param(["run", "quick.ini", "--scenario.train=false",
                      "--channel.user_tx_power_w=1e308"],
                     "link endpoints coincide: user", id="overflowing-user-snr"),
        # 3 repeats in 2 shares, one per worker: the refusal is a worker's
        pytest.param(["run", "quick.ini", "--fl.num_users=500", "--jobs", "2"],
                     "exceeds sample count", id="pool-worker-partition"),
        # the batch widths are int64
        pytest.param(["run", "quick.ini", f"--fl.batch_size={2 ** 63}"],
                     "batch_size must be in [1, 2**63)", id="batch-size-past-int64"),
        # every squared distance underflows to 0, so every SNR is infinite
        pytest.param(["run", "quick.ini", "--scenario.train=false", "--uav.altitude_m=1e-200",
                      "--scenario.area_width_m=1e-200", "--scenario.area_height_m=1e-200",
                      "--scenario.ground_height_m=0"],
                     "link endpoints coincide: user 0", id="underflowing-extent"),
        pytest.param(["run", "quick.ini", "--channel.alpha0_db=4000"],
                     "bad value for channel.alpha0_db: '4000' overflows",
                     id="overflowing-alpha0-db"),
        pytest.param(["run", "quick.ini", "--channel.noise_dbm=4000"],
                     "bad value for channel.noise_dbm: '4000' overflows",
                     id="overflowing-noise-dbm"),
        # the models overflow to inf and NaN in round 1, in the parent or in a worker
        pytest.param(["run", "quick.ini", "--fl.num_users=6", "--scenario.max_rounds=3",
                      "--scenario.repeats=2", "--fl.learning_rate=1.7976931348623157e308"],
                     "learning_rate 1.7976931348623157e+308 diverges: repeat 0",
                     id="diverging-learning-rate"),
        pytest.param(["run", "quick.ini", "--fl.num_users=6", "--scenario.max_rounds=3",
                      "--scenario.repeats=2", "--fl.learning_rate=1.7976931348623157e308",
                      "--jobs", "2"],
                     "learning_rate 1.7976931348623157e+308 diverges: repeat 0",
                     id="pool-worker-diverging-learning-rate"),
        # training past the lane-step bound is refused before any, in the parent or a worker
        pytest.param(["run", "quick.ini", f"--fl.local_epochs={10 ** 20}"],
                     f"local_epochs {10 ** 20} would train repeat 0 past 1e+10 SGD lane-steps",
                     id="huge-local-epochs"),
        pytest.param(["run", "quick.ini", f"--fl.local_epochs={10 ** 20}", "--jobs", "2"],
                     f"local_epochs {10 ** 20} would train repeat 0 past 1e+10 SGD lane-steps",
                     id="pool-worker-huge-local-epochs"),
        # corpora NumPy cannot hold in one array are refused with the config
        *(pytest.param(["run", "quick.ini", *shape, f"--data.{key}={2 ** power}"],
                       f"{source} source: {fields}", id=f"{key}-2**{power}")
          for shape, key, power, source, fields in [
              ((), "classes", 63, "blob", "num_classes * samples_per_class"),
              ((), "classes", 62, "blob", "num_classes * samples_per_class"),
              ((), "samples_per_class", 63, "blob", "num_classes * samples_per_class"),
              ((), "test_samples_per_class", 63, "blob", "num_classes * test_samples_per_class"),
              (("--scenario.train=false", "--data.source=shape"), "num_samples", 63,
               "shape", "num_samples * (input_dim + 1)"),
              (("--scenario.train=false", "--data.source=shape"), "input_dim", 63,
               "shape", "num_samples * (input_dim + 1)"),
          ]),
        pytest.param(["run", "quick.ini", "--data.partition=sharded",
                      "--data.shards_per_user=0"],
                     "shards_per_user must be >= 1", id="zero-shards-per-user"),
        pytest.param(["run", "quick.ini", "--fraction=0.1"],
                     "unrecognized argument '--fraction=0.1'", id="override-without-section"),
        pytest.param(["run", "quick.ini", "--fl.fraction"],
                     "unrecognized argument '--fl.fraction'", id="override-without-value"),
    ])
    def test_exit_1_with_one_error_line(self, argv, message, tmp_path, capsys):
        command, config, *rest = argv
        out = tmp_path / "out"
        assert main([command, str(CONFIGS / config), "--out", str(out), *rest]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert message in err[0]
        assert not out.exists()

    def test_unknown_partition_loads_no_corpus(self, loads, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(CONFIGS / "quick.ini"), "--out", str(out), "--jobs", "2",
                     "--data.partition=bogus"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: unknown partition scheme 'bogus'"]
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare-placement"])
    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["a-file", "below-a-file"])
    def test_unusable_out_exits_1_with_one_error_line(self, command, below, tmp_path,
                                                      capsys):
        existing = tmp_path / "file"
        existing.write_text("kept\n")
        out = existing.joinpath(*below)
        assert main([command, str(CONFIGS / "quick.ini"), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
        assert existing.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["run", "quick.ini", "--jobs", "0"],
    ["run", "quick.ini", "--jobs", "-3"],
    ["run", "quick.ini", "--jobs", "abc"],
    ["compare-placement", "quick.ini", "--jobs", "0"],
    ["run"],
    ["launch", "quick.ini"],
    [],
], ids=["zero-jobs", "negative-jobs", "non-integer-jobs", "compare-zero-jobs",
        "missing-config", "unknown-subcommand", "no-subcommand"])
def test_argument_error_exits_1_with_one_error_line(argv, tmp_path, capsys):
    argv = [str(CONFIGS / arg) if arg == "quick.ini" else arg for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")] if argv else argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# boundary values by parser; every int or float key of the server and energy sections,
# every float key, dB ones included, of the scenario, channel and fl sections, and the
# int keys of those and the data section that scale no work, or whose work a refusal
# bounds (local_epochs: the training's lane-steps)
BOUNDARY_VALUES = {int: [0, 1, 10 ** 20, 10 ** 400, -1],
                   _float: [0.0, 5e-324, 1e-300, 1e154, 1e200, 1.7976931348623157e308, -1.0]}
BOUNDARY_INT_KEYS = {("scenario", "master_seed"), ("scenario", "eval_stride"),
                     ("fl", "batch_size"), ("fl", "local_epochs"),
                     ("channel", "payload_bits_per_param"), ("data", "shards_per_user")}
BOUNDARY_KEYS = {(section, key): BOUNDARY_VALUES[int if parse is int else _float]
                 for section, keys in _SCHEMA.items() for key, (parse, _) in keys.items()
                 if (section in ("uav", "energy") and parse in BOUNDARY_VALUES)
                 or (section in ("scenario", "channel", "fl")
                     and (parse is _float or key.endswith(("_db", "_dbm"))))
                 or (section, key) in BOUNDARY_INT_KEYS}


@st.composite
def boundary_overrides(draw):
    """One or two of BOUNDARY_KEYS, each set to a boundary value of its parser."""
    keys = draw(st.lists(st.sampled_from(list(BOUNDARY_KEYS)), min_size=1, max_size=2,
                         unique=True))
    return [f"--{section}.{key}={draw(st.sampled_from(BOUNDARY_KEYS[section, key]))!r}"
            for section, key in keys]


class TestBoundaryValues:
    """A run at boundary values either finishes with finite outputs or exits 1
    with one `error:` line and no output directory."""

    @settings(max_examples=200, deadline=None)
    @given(overrides=boundary_overrides(), train=st.booleans(),
           partition=st.sampled_from(["iid", "sharded"]))
    # commands that once gave a traceback, or were refused though they could run
    @example(overrides=["--energy.cpu_freq_min_hz=1e199", "--energy.cpu_freq_max_hz=1e200",
                        "--energy.kappa=1e-28"], train=False, partition="iid")
    @example(overrides=["--energy.kappa=1e300"], train=False, partition="iid")
    @example(overrides=["--uav.tx_power_w=1e308"], train=False, partition="iid")
    @example(overrides=["--energy.cpu_freq_min_hz=1e-310"], train=False, partition="iid")
    @example(overrides=["--channel.alpha0_db=4000"], train=False, partition="iid")
    @example(overrides=["--channel.noise_dbm=4000"], train=False, partition="iid")
    @example(overrides=["--fl.learning_rate=1.7976931348623157e308"], train=True,
             partition="iid")
    @example(overrides=[f"--fl.local_epochs={10 ** 20}"], train=True, partition="iid")
    @example(overrides=[f"--fl.local_epochs={10 ** 20}"], train=False, partition="sharded")
    # four keys: a one- or two-key draw cannot make every squared distance underflow
    @example(overrides=["--uav.altitude_m=1e-200", "--scenario.area_width_m=1e-200",
                        "--scenario.area_height_m=1e-200", "--scenario.ground_height_m=0"],
             train=False, partition="iid")
    def test_finite_outputs_or_one_error_line(self, overrides, train, partition):
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["run", str(CONFIGS / "quick.ini"), "--out", str(out),
                             "--fl.num_users=6", "--scenario.max_rounds=3",
                             "--scenario.repeats=2", f"--scenario.train={train}",
                             f"--data.partition={partition}", *overrides])
            if code == 1:
                err = stderr.getvalue().splitlines()
                assert len(err) == 1 and err[0].startswith("error: ")
                assert not out.exists()
                return
            assert code == 0 and stderr.getvalue() == ""
            stride = int(dict(o[2:].split("=") for o in overrides).get("scenario.eval_stride", 1))
            for csv in out.glob("*.csv"):
                header, *rows = (line.split(",") for line in csv.read_text().splitlines())
                for row in rows:
                    # `selected` holds ids; a timing-only run has no test metrics, nor
                    # has a round that eval_stride skips (the first column is the round)
                    tested = train and int(row[0]) % stride == 0
                    exempt = {"selected"} | (set() if tested else {"test_loss", "test_acc"})
                    assert all(math.isfinite(float(cell)) for name, cell in zip(header, row)
                               if name not in exempt), csv.name


class TestCorpusLoadedOnce:
    """The corpus load ahead of the first run fills the cache every repeat of
    every run reads."""

    @pytest.mark.parametrize("command", ["run", "compare-placement"])
    def test_one_load_per_invocation(self, command, loads, tmp_path, capsys):
        assert main([command, str(CONFIGS / "quick.ini"), "--out", str(tmp_path)]) == 0
        assert len(loads) == 1


def test_cli_import_leaves_out_the_process_pool():
    code = "import sys, agifl.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_training_run_leaves_out_numpy_ma(tmp_path):
    """No step of a training run imports `numpy.ma` (`np.unique` without
    `return_inverse` does, at 11-15 ms per process)."""
    code = ("import sys; from agifl.cli import main; "
            f"code = main(['run', {str(CONFIGS / 'quick.ini')!r}, '--out', {str(tmp_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert (tmp_path / "min_sum_dist_rep00.csv").exists()
    assert out.stderr.strip() == "0 False"


class TestCollectorContract:
    """A command that succeeds freezes the heap it leaves (exit skips it); the
    next call thaws it, and a refusal freezes nothing."""

    @pytest.fixture(autouse=True)
    def thawed(self):
        gc.unfreeze()
        yield
        gc.unfreeze()

    @pytest.mark.parametrize("argv", [["run", str(CONFIGS / "quick.ini")], ["oracle", "rate"]],
                             ids=["run", "oracle"])
    def test_success_freezes_the_heap(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # for run's default --out
        assert gc.get_freeze_count() == 0
        assert main(argv) == 0
        assert gc.get_freeze_count() > 0

    def test_next_call_thaws_what_the_last_froze(self, tmp_path, capsys):
        class Node:
            pass

        node = Node()
        node.self = node  # a cycle only the collector frees
        ref = weakref.ref(node)
        assert main(["run", str(CONFIGS / "quick.ini"), "--out", str(tmp_path)]) == 0
        del node
        gc.collect()
        assert ref() is not None  # frozen while alive at the return
        assert main(["run", str(tmp_path / "missing.ini")]) == 1
        assert gc.get_freeze_count() == 0
        gc.collect()
        assert ref() is None

    def test_console_run_prints_its_summary_on_a_pipe(self, tmp_path):
        # stdout on a pipe is block-buffered: the summary is written at exit
        env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
        out = subprocess.run([sys.executable, "-m", "agifl.cli", "run",
                              str(CONFIGS / "quick.ini"), "--out", str(tmp_path)],
                             stdout=subprocess.PIPE, text=True, env=env)
        assert out.returncode == 0
        assert out.stdout.startswith("run: scheme=min_sum_dist repeats=3 ")


class TestComparePlacement:
    def test_energy_and_accuracy_panels(self, tmp_path, capsys):
        path = tmp_path / "cmp.ini"
        path.write_text("""\
[scenario]
repeats = 2
max_rounds = 5
master_seed = 3

[fl]
num_users = 6
fraction = 0.5
local_epochs = 1

[data]
source = blobs
classes = 3
samples_per_class = 20
test_samples_per_class = 8
input_dim = 4
spread = 0.1
partition = iid

[compare]
budget_grid_j = 2,4,8,16
budget_repeats = 2
""")
        out = tmp_path / "out"
        assert main(["compare-placement", str(path), "--out", str(out)]) == 0
        energy = (out / "compare_energy.csv").read_text().splitlines()
        assert energy[0] == "round,min_sum_dist_cum_energy_j,random_cum_energy_j"
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in energy[1:]])
        assert np.all(rows[:, 1] < rows[:, 2])  # optimized below random
        acc = (out / "compare_accuracy.csv").read_text().splitlines()
        assert acc[0] == "budget_j,min_sum_dist_best_acc,random_best_acc"
        assert len(acc) == 5
        assert (out / "compare_energy.svg").exists()
        assert (out / "compare_accuracy.svg").exists()

    def test_configured_placement_does_not_change_the_comparison(self, tmp_path):
        outputs = []
        for name, overrides in (("default", []), ("fixed", ["--scenario.placement=fixed"])):
            out = tmp_path / name
            assert main(["compare-placement", str(CONFIGS / "quick.ini"), "--out", str(out),
                         *overrides]) == 0
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert (outputs[0]["compare_energy.csv"].splitlines()[0]
                == b"round,min_sum_dist_cum_energy_j,random_cum_energy_j")

    def test_single_budget_past_two_to_the_53(self, tmp_path):
        # the accuracy chart's x axis holds one value that a +1 would not widen
        out = tmp_path / "out"
        assert main(["compare-placement", str(CONFIGS / "quick.ini"), "--out", str(out),
                     "--compare.budget_grid_j=1e17"]) == 0
        assert (out / "compare_accuracy.svg").read_text().endswith("</svg>\n")


def oracle_error(argv, capsys):
    """Run `agifl oracle` on `argv`, check that it exits 1 with nothing on
    stdout and one line on stderr, and return that line."""
    assert main(["oracle"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    return err


class TestOracle:
    def test_rate_defaults_match_uplink(self, capsys):
        assert main(["oracle", "rate"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(5e5 * math.log2(101), rel=1e-9)

    def test_rate_with_args(self, capsys):
        assert main(["oracle", "rate", "bandwidth_hz=1e6", "tx_power_w=0.01"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1e6 * math.log2(11), rel=1e-9)

    def test_placement_single_user(self, capsys):
        assert main(["oracle", "placement", "users=12,34"]) == 0
        x, y, _ = capsys.readouterr().out.split()
        assert float(x) == pytest.approx(12.0, abs=0.02)
        assert float(y) == pytest.approx(34.0, abs=0.02)

    def test_aggregate_hand_rule(self, capsys):
        assert main(["oracle", "aggregate", "[0]x1", "[4]x3"]) == 0
        assert capsys.readouterr().out.strip() == "[3]"

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: model"),
        (["launch"], "invalid choice: 'launch'"),
        (["rate", "--out", "x"], "expected key=value, got '--out'"),
        (["--out", "x", "rate"], "invalid choice: 'x'"),
    ], ids=["no-model", "unknown-model", "stray-out", "leading-out"])
    def test_command_line_error_is_one_error_line(self, argv, message, capsys):
        err = oracle_error(argv, capsys)
        assert err.startswith("error: ") and message in err

    def test_bad_args_exit_1(self, capsys):
        assert main(["oracle", "rate", "nonsense=1"]) == 1
        assert main(["oracle", "placement"]) == 1
        assert main(["oracle"]) == 1
        assert main(["oracle", "launch"]) == 1

    @pytest.mark.parametrize("argv", [
        ["rate", "bandwidth_hz=nan"],
        ["rate", "tx_power_w=inf"],
        ["rate", "horizontal_m=-inf"],
        ["placement", "users=0,0;nan,5"],
        ["placement", "users=1,2", "grid_m=nan"],
        ["aggregate", "[1,nan]x2"],
        ["aggregate", "[0]x1", "[inf]x3"],
    ], ids=["nan", "inf", "minus-inf", "nan-user", "nan-grid", "nan-update", "inf-update"])
    def test_non_finite_number_exits_1(self, argv, capsys):
        assert oracle_error(argv, capsys).startswith("error: not a finite number")

    @pytest.mark.parametrize("argv, message", [
        (["aggregate", "[1,2]x0"], "all sample counts must be >= 1"),
        (["aggregate", "[1,2]x-1", "[3,4]x2"], "all sample counts must be >= 1"),
        (["aggregate", "[1,2]x1", "[3,4,5]x1"], "all updates must have the same length"),
    ], ids=["zero-count", "negative-count", "unequal-length"])
    def test_invalid_update_exits_1(self, argv, message, capsys):
        assert oracle_error(argv, capsys) == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["rate", "altitude_m=0", "horizontal_m=0"], "slant distance > 0"),
        (["rate", "altitude_m=1e-200"], "slant distance > 0"),
        (["rate", "altitude_m=1e200"], "its square finite"),
        (["rate", "altitude_m=1.3e154", "horizontal_m=1.3e154"], "its square finite"),
        (["rate", "altitude_m=-5"], "must be >= 0"),
        (["rate", "horizontal_m=-1"], "must be >= 0"),
        (["rate", "bandwidth_hz=-5"], "must be positive and finite"),
        (["rate", "tx_power_w=0"], "must be positive and finite"),
        (["rate", "alpha0_linear=-1e-5"], "must be positive and finite"),
        (["rate", "noise_w=0"], "must be positive and finite"),
        (["rate", "tx_power_w=1e308"], "the SNR must be finite"),
        (["rate", "noise_w=1e-200", "altitude_m=1e-100"], "the SNR must be finite"),
        (["rate", "bandwidth_hz=1e308"], "bandwidth must be below 2**1014 Hz"),
        (["placement", "users=1,2", "grid_m=0"], "grid steps must be positive"),
        (["placement", "users=1,2", "grid_m=-1"], "grid steps must be positive"),
        (["placement", "users=1,2", "refine_m=0"], "grid steps must be positive"),
        (["placement", "users=1,2", "altitude_m=1e308"], "its square finite"),
        (["placement", "users=1,2", "altitude_m=-1"], "altitude must be >= 0"),
    ], ids=["zero-distance", "underflowing-distance", "overflowing-distance",
            "overflowing-sum", "negative-altitude",
            "negative-horizontal", "negative-bandwidth", "zero-power", "negative-gain",
            "zero-noise", "overflowing-snr", "underflowing-noise-power", "overflowing-rate",
            "zero-grid", "negative-grid", "zero-refine",
            "overflowing-placement-altitude", "negative-placement-altitude"])
    def test_out_of_range_argument_exits_1(self, argv, message, capsys):
        err = oracle_error(argv, capsys)
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv, message", [
        (["placement", "users=1e200,0"], "grid_m=1 vanishes"),
        (["placement", "users=1e17,0", "grid_m=1000", "refine_m=1"], "refine_m=1 vanishes"),
        (["placement", "users=0,0;3000,3000"], "grid_m=1 asks for a grid of more than"),
        (["placement", "users=-1e308,0;1e308,0", "grid_m=1e300"],
         "grid_m=1e+300 asks for a grid of more than"),
        (["placement", "users=5,5", "grid_m=1000", "refine_m=1e-4"],
         "refine_m=0.0001 asks for a grid of more than"),
    ], ids=["vanishing-grid", "vanishing-refine", "oversized-grid", "infinite-spread",
            "oversized-refine"])
    def test_unbuildable_grid_exits_1_before_allocating(self, argv, message, capsys):
        tracemalloc.start()
        try:
            err = oracle_error(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.startswith("error: ") and message in err
        assert peak < 2**20  # each oversized grid here would take 72 MB or more


class TestDeterministicSvg:
    def test_svg_bytes_stable(self, tmp_path):
        from agifl.reports import svg_line_chart
        series = [("a", [0, 1, 2], [0.0, 1.5, 1.0]), ("b", [0, 1, 2], [2.0, 0.5, 0.25])]
        svg_line_chart(tmp_path / "one.svg", series, "t", "x", "y")
        svg_line_chart(tmp_path / "two.svg", series, "t", "x", "y")
        assert (tmp_path / "one.svg").read_bytes() == (tmp_path / "two.svg").read_bytes()
