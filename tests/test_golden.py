"""Golden outputs and demo smoke runs.

The `run` and `compare-placement` CSVs of configs/quick.ini must hash to
the values recorded in perfbench/golden.json, and the demos that import
the round-loop and energy APIs must still run.
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


@pytest.mark.parametrize("command", ["run", "compare-placement"])
def test_quick_csvs_match_golden(command, tmp_path, capsys):
    expected = GOLDEN[f"{command} configs/quick.ini"]
    assert main([command, str(ROOT / "configs" / "quick.ini"), "--out", str(tmp_path)]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.glob("*.csv")}
    assert got == expected


@pytest.mark.parametrize("demo", ["01_link_budget.py", "04_energy_accounting.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert list(tmp_path.iterdir()) == []
