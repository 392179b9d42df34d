"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a source checkout whose outputs are known good. It
writes two files next to this script:

- reference.json: for every workload and seed, the digest check.py compares
  a run's outputs with (round counts, halt reasons, a sha256 of each
  repeat's `selected` column, and the float columns);
- golden.json: the sha256 of every CSV that `agifl run` and
  `agifl compare-placement` write for configs/quick.ini and
  configs/case_study.ini at their own seed with `--jobs 1`. A refactor of
  the round loop keeps these bytes; selftest.py checks them.
"""

import hashlib
import json
import shutil
import sys
import time

import check
import run

GOLDEN_FILE = run.HERE / "golden.json"
GOLDEN_CONFIGS = ("configs/quick.ini", "configs/case_study.ini")
GOLDEN_COMMANDS = ("run", "compare-placement")
SEEDS = range(run.SEED_STRIDE)  # the seeds recorded in reference.json


def golden_hashes():
    """sha256 of each CSV written by the golden invocations."""
    hashes = {}
    for config in GOLDEN_CONFIGS:
        for command in GOLDEN_COMMANDS:
            out_dir = run.WORK / "golden"
            shutil.rmtree(out_dir, ignore_errors=True)
            inv = run.launch([command, config, "--jobs", "1"], out_dir,
                             time.monotonic() + 600)
            if inv.exit_code != 0:
                raise SystemExit(f"{command} {config} exited {inv.exit_code}")
            hashes[f"{command} {config}"] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out_dir.glob("*.csv"))}
            shutil.rmtree(out_dir, ignore_errors=True)
    return hashes


def main():
    reference = {}
    for name in run.WORKLOADS:
        for seed in SEEDS:
            inv = run.run_checked(name, seed, 0, time.monotonic() + 600, {},
                                  keep_digest=True)
            if not inv.ok:
                raise SystemExit(f"{name} seed {seed}: {inv.problems}")
            reference.setdefault(name, {})[str(seed)] = inv.digest
            print(f"{name} seed {seed}: {inv.wall_s:.2f} s", flush=True)
    check.REFERENCE_FILE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    GOLDEN_FILE.write_text(json.dumps(golden_hashes(), indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
