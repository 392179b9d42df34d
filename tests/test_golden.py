"""Golden outputs and demo smoke runs.

The `run` and `compare-placement` CSVs of configs/quick.ini, and the
`compare-placement` CSVs of configs/case_study.ini, must hash to the values
recorded in perfbench/golden.json; timing-only `run`s of case_study.ini at
3000 users in three forms, and a budget-halted MLP `run` of quick.ini, must
hash to the values below; the demos must still run, print what they print
(their stdout hashes to the values below) and write what they write, under
out/.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from agifl.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())


def csv_hashes(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in directory.glob("*.csv")}


@pytest.mark.parametrize("command", ["run", "compare-placement"])
def test_quick_csvs_match_golden(command, tmp_path, capsys):
    expected = GOLDEN[f"{command} configs/quick.ini"]
    assert main([command, str(ROOT / "configs" / "quick.ini"), "--out", str(tmp_path)]) == 0
    assert csv_hashes(tmp_path) == expected


def test_case_study_compare_matches_golden(tmp_path, capsys):
    expected = GOLDEN["compare-placement configs/case_study.ini"]
    assert main(["compare-placement", str(ROOT / "configs" / "case_study.ini"),
                 "--out", str(tmp_path)]) == 0
    assert csv_hashes(tmp_path) == expected


# Timing-only runs at 3000 users: every round reads the per-user link, time
# and energy arrays, so these hashes lock them in the last bit. Recorded from
# the per-user scalar loop the arrays replaced.
TIMING_ONLY_CSVS = {
    "g2a": {
        "min_sum_dist_mean.csv": "947d4f953f1a1e411b0ba35fb98865c863a326da45088a842cdaff3ecadf83d4",
        "min_sum_dist_rep00.csv": "0ecd8a32f7d6ab8529f6006c3f6ddd6a82997d416ee33a171197176af4039d7c",
        "min_sum_dist_rep01.csv": "240d25f85bcaa4db01c8db663a7e20a749707029176eae42faf7821198051515",
    },
    "mixed": {
        "min_sum_dist_mean.csv": "b1c3fbd5aa2d0a0bd4a507bba99423527419e1ea413c3e2627840fb51892972f",
        "min_sum_dist_rep00.csv": "0393bfb9cbb948fb673ed4979bb30f93dcad8ce022631b4c1ea0c67632c84322",
        "min_sum_dist_rep01.csv": "9e7cc1d2024282a499e9a8d6700375781975653ca51b1b55d7d714898048e2dd",
    },
    "a2g": {
        "min_sum_dist_mean.csv": "b5a48036be5d4629f27b54340cee2ff411a4fe32deec8d8c5591d5aed7ae7610",
        "min_sum_dist_rep00.csv": "c6acb49fa97289e6f41eb5fb0dfab2be7da590bc062a96825c5cd8cbf2e00784",
        "min_sum_dist_rep01.csv": "4872707ab82a0ae54cb965e3a9ffb15d277ea859878f180747a3210a192ba381",
    },
}
# Every a2g user flies 90 m above the server, and 70,001 samples split IID
# give shards of 23 and 24; the users' compute energy is on. Recorded from
# the per-user generators that squared each distance and multiplied each
# user's cycle count in Python.
TIMING_ONLY_ARGS = {"a2g": ["--data.num_samples=70001", "--data.partition=iid",
                            "--energy.kappa=1e-28"]}


@pytest.mark.parametrize("form", sorted(TIMING_ONLY_CSVS))
def test_timing_only_run_matches_golden(form, tmp_path, capsys):
    assert main(["run", str(ROOT / "configs" / "case_study.ini"), "--out", str(tmp_path),
                 "--scenario.train=false", "--data.source=shape", "--fl.num_users=3000",
                 "--fl.fraction=0.1", "--scenario.max_rounds=10", "--scenario.repeats=2",
                 f"--scenario.form={form}", *TIMING_ONLY_ARGS.get(form, [])]) == 0
    assert csv_hashes(tmp_path) == TIMING_ONLY_CSVS[form]


# A mixed-form MLP training run whose three repeats halt on the budget after
# 7, 7 and 6 rounds, over shards of 13 and 14 samples: these hashes lock
# `aggregate` over unequal shards and a mean CSV cut to the common rounds.
MIXED_HALT_CSVS = {
    "min_sum_dist_mean.csv": "2294b21bf91df920cc4fbc8b02d405e4b1dcaadc4d1ff242d7af2faa88469e6f",
    "min_sum_dist_rep00.csv": "ff89b5b50983c47935fa6d220b9d0ed9a71ddd5fd7d07394368cb14b68df9b79",
    "min_sum_dist_rep01.csv": "7335f39efd860fb2678321ac12e511fe65c99ec5bd2e42847a5a42e344b2e0ef",
    "min_sum_dist_rep02.csv": "85be5658cc8a05e4cf6a6e590188c6e5ffc843c2a14c98e77e1c6cf61b33c022",
}


def test_budget_halted_mlp_run_matches_golden(tmp_path, capsys):
    assert main(["run", str(ROOT / "configs" / "quick.ini"), "--out", str(tmp_path),
                 "--model.kind=mlp", "--scenario.form=mixed", "--fl.num_users=30",
                 "--scenario.energy_budget_j=30"]) == 0
    assert "halts=budget:3" in capsys.readouterr().out
    assert csv_hashes(tmp_path) == MIXED_HALT_CSVS


DEMO_05_CSVS = {
    "deployment_accuracy.csv": "dc2dd3030b5076ec6e9a825c2c472a7a6ba11dcbf35e99448ae67ec38c0c34e4",
    "deployment_energy.csv": "dfc0d593878b4c71cfff19a982355f4dbd87be92f27f0d08c1e140fcd1d38dd3",
}


DEMO_STDOUT = {
    "01_link_budget.py": "61a5420e4205fba4c78559153b355646315399d99a6de5b2dd4d6e88f9b34dae",
    "02_placement.py": "26f91d7501f5d98fde7d7e980ab3778c6fd1013cd4065fc2992dab0a22446704",
    "03_fedavg_training.py": "659cc5a72995b97ad98ab9a2380da20977f184b3b86bc74cd3aa649fb718f7a0",
    "04_energy_accounting.py": "49795ff7505d09f2ec0734d121d3bdf8127a4052c585e7e752970a2ee850c860",
    "05_deployment_comparison.py":
        "0b4fe57ea6ecd8c546dd2de01e2d825fcf381c2be0bab79a61e95d043ed18b79",
}


@pytest.mark.parametrize("demo, csvs, svgs", [
    pytest.param("01_link_budget.py", {}, [], id="01_link_budget.py"),
    pytest.param("02_placement.py", {}, ["placement_descent.svg"], id="02_placement.py"),
    pytest.param("03_fedavg_training.py", {}, ["fedavg_accuracy.svg"],
                 id="03_fedavg_training.py"),
    pytest.param("04_energy_accounting.py", {}, [], id="04_energy_accounting.py"),
    pytest.param("05_deployment_comparison.py", DEMO_05_CSVS,
                 ["deployment_accuracy.svg", "deployment_energy.svg"],
                 id="05_deployment_comparison.py"),
])
def test_demo_runs(demo, csvs, svgs, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"  # the suite's filterwarnings policy, which subprocesses skip
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == DEMO_STDOUT[demo]
    written = sorted(path.relative_to(tmp_path).as_posix()
                     for path in tmp_path.rglob("*") if path.is_file())
    assert written == sorted(f"out/{name}" for name in [*csvs, *svgs])
    assert csv_hashes(tmp_path / "out") == csvs
