import configparser
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from agifl import scenario as scenario_module
from agifl.channel import ChannelParams
from agifl.cli import main
from agifl.config import _SCHEMA, ConfigError, RunConfig, load_config, parse_overrides
from agifl.scenario import load_corpus, load_source, run_scenario

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
    ("data", "mnist_dir"): ("/data/mnist", None, {}),  # locates idx files only
    ("data", "num_samples"): ("1000", "scenario.source.num_samples", SHAPE),
    ("channel", "bandwidth_hz"): ("2e6", "scenario.channel.total_bandwidth", {}),
    ("channel", "alpha0_db"): ("-40", "scenario.channel.ref_gain", {}),
    ("channel", "noise_dbm"): ("-80", "scenario.channel.noise", {}),
    ("channel", "user_tx_power_w"): ("0.2", "scenario.channel.user_tx_power", {}),
    ("channel", "uav_downlink_bandwidth_hz"): ("2e6",
                                               "scenario.channel.uav_downlink_bandwidth", {}),
    ("channel", "payload_bits_per_param"): ("16", "scenario.channel.payload_bits_per_param",
                                            {}),
    ("channel", "uplink_bandwidth_hz"): ("5e4", "scenario.channel.uplink_bandwidth_override",
                                         {}),
    ("uav", "altitude_m"): ("50", "scenario.uav.altitude", {}),
    ("uav", "propulsion_power_w"): ("80", "scenario.uav.propulsion_power", {}),
    ("uav", "tx_power_w"): ("0.02", "scenario.uav.tx_power", {}),
    ("energy", "cycles_per_bit"): ("20", "scenario.cycles_per_bit", {}),
    ("energy", "cpu_freq_min_hz"): ("1.5e9", "scenario.cpu_freq_range.0", {}),
    ("energy", "cpu_freq_max_hz"): ("2.5e9", "scenario.cpu_freq_range.1", {}),
    ("energy", "include_user_compute"): ("true", "scenario.include_user_compute_energy", {}),
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

    @pytest.mark.parametrize("key", list(KEY_FIELDS), ids=".".join)
    def test_each_key_sets_exactly_its_field(self, key, tmp_path):
        value, target, base = KEY_FIELDS[key]
        path = tmp_path / "empty.ini"
        path.write_text("")
        before = _fields(load_config(path, base))
        after = _fields(load_config(path, {**base, key: value}))
        # a field only one of two source classes has is not compared
        changed = {p for p in before.keys() & after.keys() if before[p] != after[p]}
        if target is None:
            assert changed == set()
        else:
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
        for name in ("train-images-idx3-ubyte", "t10k-images-idx3-ubyte"):
            (not_mnist / name).write_bytes(imgs.read_bytes())
        for name in ("train-labels-idx1-ubyte", "t10k-labels-idx1-ubyte"):
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


class TestInvalidInputExits1:
    """Invalid input stops before any run with exit 1 and one error line."""

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
        pytest.param(["run", "quick.ini", "--channel.bandwidth_hz=-1"],
                     "total_bandwidth must be positive", id="negative-bandwidth"),
        pytest.param(["run", "quick.ini", "--channel.user_tx_power_w=0"],
                     "user_tx_power must be positive", id="zero-user-tx-power"),
        pytest.param(["run", "quick.ini", "--channel.payload_bits_per_param=0"],
                     "payload_bits_per_param must be >= 1", id="zero-payload-bits"),
        pytest.param(["run", "quick.ini", "--channel.uplink_bandwidth_hz=-5"],
                     "uplink_bandwidth_override must be positive",
                     id="negative-uplink-bandwidth"),
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
        pytest.param(["run", "quick.ini", "--energy.kappa=-1",
                      "--energy.include_user_compute=true"],
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


class TestCorpusLoadedOnce:
    """The preflight's load fills the cache every repeat of every run reads."""

    @pytest.fixture
    def loads(self, monkeypatch):
        calls = []

        def counting(source, seed):
            calls.append((source, seed))
            return load_source(source, seed)

        monkeypatch.setattr(scenario_module, "load_source", counting)
        load_corpus.cache_clear()
        yield calls
        load_corpus.cache_clear()

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

    def test_fixed_placement_degeneracy(self, tmp_path):
        path = tmp_path / "fixed.ini"
        path.write_text("""\
[scenario]
repeats = 1
max_rounds = 3
placement = fixed
fixed_x_m = 400
fixed_y_m = 400
train = false

[fl]
num_users = 5
fraction = 0.4

[data]
source = shape
num_samples = 500
input_dim = 16
classes = 4

[compare]
budget_grid_j =
""")
        out = tmp_path / "out"
        assert main(["compare-placement", str(path), "--out", str(out)]) == 0
        lines = (out / "compare_energy.csv").read_text().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows[:, 1], rows[:, 2])


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


class TestDeterministicSvg:
    def test_svg_bytes_stable(self, tmp_path):
        from agifl.reports import svg_line_chart
        series = [("a", [0, 1, 2], [0.0, 1.5, 1.0]), ("b", [0, 1, 2], [2.0, 0.5, 0.25])]
        svg_line_chart(tmp_path / "one.svg", series, "t", "x", "y")
        svg_line_chart(tmp_path / "two.svg", series, "t", "x", "y")
        assert (tmp_path / "one.svg").read_bytes() == (tmp_path / "two.svg").read_bytes()
