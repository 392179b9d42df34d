"""Self-test of the benchmark on configs/quick.ini.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that:

1. a short untraced and a short traced run print every metric of
   BENCHMARK.json by name with its unit, for a `run` and a
   `compare-placement` workload;
2. traced and untraced invocations write byte-identical outputs;
3. an invocation that fails (a missing config) is counted in `attempted`
   and `failed`, and makes the result incorrect, instead of being dropped;
4. the CSVs of the golden invocations still hash to golden.json.

Prints one line per check and exits 1 if any fails.
"""

import contextlib
import io
import json
import shutil
import sys
import time

import record
import run

QUICK = "configs/quick.ini"
QUICK_SPEC = {"num_users": 20, "fraction": 0.1, "repeats": 3, "max_rounds": 20,
              "train": True}
QUICK_WORKLOADS = {
    "quick_run": {"kind": "run", "jobs": 1, "argv": ["run", QUICK], "spec": QUICK_SPEC},
    "quick_compare": {"kind": "compare", "jobs": 1, "argv": ["compare-placement", QUICK],
                      "spec": dict(QUICK_SPEC, budgets=[2.0, 4.0, 8.0, 16.0])},
}


def _run_main(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(args)
    lines = buf.getvalue().strip().splitlines()
    return code, (json.loads(lines[-1]) if lines else None), \
        (json.loads(lines[-2])["env"] if len(lines) > 1 else None)


def metrics_printed():
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in QUICK_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = _run_main(["--workload", name, "--seed", "3",
                                         "--seconds", "1", "--trace", str(trace)])
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{name} trace {trace}: exit {code}, result {result}")
                continue
            want = {m["name"]: m["unit"] for m in benchmark[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))}")
    return problems


def traced_outputs_identical():
    problems = []
    for name, wl in QUICK_WORKLOADS.items():
        outputs = []
        for trace in (False, True):
            out_dir = run.WORK / "selftest" / f"{name}_{int(trace)}"
            shutil.rmtree(out_dir, ignore_errors=True)
            inv = run.launch(wl["argv"] + ["--seed", "5", "--jobs", "1"], out_dir,
                             time.monotonic() + 120, trace=trace)
            if inv.exit_code != 0:
                problems.append(f"{name} trace={trace}: exit {inv.exit_code}")
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()
                            if p.suffix in (".csv", ".svg")})
        if not outputs[0] or outputs[0] != outputs[1]:
            problems.append(f"{name}: traced outputs differ from untraced")
    return problems


def failure_counted():
    """The first full invocation gets a config that does not exist."""
    real_launch = run.launch
    broken = []

    def launch(argv, out_dir, deadline, setup_only=False, trace=False):
        if not setup_only and not broken:
            broken.append(out_dir)
            argv = [a if a != QUICK else "configs/missing.ini" for a in argv]
        return real_launch(argv, out_dir, deadline, setup_only, trace)

    run.launch = launch
    try:
        code, result, env = _run_main(["--workload", "quick_run", "--seed", "3",
                                       "--seconds", "6", "--trace", "0"])
    finally:
        run.launch = real_launch
    if code != 0 or result is None:
        return [f"run with one failing invocation exited {code}"]
    if result["correct"] or result["failed"] != 1 or env["failed_frac"] <= 0 \
            or result["attempted"] < 2:
        return [f"failing invocation not counted: {result}, failed_frac {env['failed_frac']}"]
    return []


def golden_unchanged():
    golden = json.loads(record.GOLDEN_FILE.read_text())
    got = record.golden_hashes()
    return [f"{key}: {sorted(n for n in golden[key] if golden[key][n] != got.get(key, {}).get(n))}"
            for key in golden if golden[key] != got.get(key)]


def main():
    run.WORKLOADS.update(QUICK_WORKLOADS)
    failed = 0
    for test in (metrics_printed, traced_outputs_identical, failure_counted,
                 golden_unchanged):
        problems = test()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {test.__name__}"
              + "".join(f"\n    {p}" for p in problems), flush=True)
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
