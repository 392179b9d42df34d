"""The agifl benchmark: real CLI invocations, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/agifl`
and `configs/`). Each workload is one `agifl` command line, run in a closed
loop with one client: one fresh process at a time, with BLAS/OpenMP pinned
to one thread per process. Invocation i of a run is passed `--seed`
N + 16 i (see `invocation_seed`), so a run averages over several inputs of
the workload instead of repeating one. Invocations start while the
predicted end is at most half an invocation past `--seconds` (at least one
always runs); every invocation's outputs are checked (see check.py) and a
failure counts in `failed`.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json over the run's
invocations: `peak_rss_mb` as the median, and the time metrics as means
taken to a nominal host speed. Each invocation times a fixed computation
before and after the command (`launch.calibrate`); its times leave those
out and are multiplied by CALIBRATION_NOMINAL_S / (the mean of the two).
The speed of a shared host's vCPUs changes by up to 2x from one minute to
the next; the program and the calibration in the same process slow down
alike, so the scaled times keep the program's own changes and lose most
of the host's. README.md gives the figures; the `env` line keeps the
unscaled ones.

`--trace 1` alternates an untraced and a traced invocation (both
`--jobs 1`, same seed) and prints the per-layer metrics, each the median
over the traced ones; the difference of the two unscaled median `wall_s`
is the tracing overhead. The last line of standard output is the result
object; the line before it records the environment.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170  # every run must end within 180 s
CALIBRATION_NOMINAL_S = 0.2  # launch.calibrate() on the host of README's baseline

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

SEED_STRIDE = 16  # reference.json records seeds 0-15: the first seed of each run

CASE = "configs/case_study.ini"
CASE_SPEC = {"num_users": 100, "fraction": 0.02, "repeats": 20, "max_rounds": 100,
             "train": True}

# Why each workload was chosen: README.md, "Workloads".
WORKLOADS = {
    "timing_scale": {
        "kind": "run", "jobs": 1,
        "argv": ["run", CASE, "--scenario.train=false", "--data.source=shape",
                 "--fl.num_users=30000", "--fl.fraction=0.1",
                 "--scenario.max_rounds=50", "--scenario.repeats=2"],
        "spec": {"num_users": 30000, "fraction": 0.1, "repeats": 2, "max_rounds": 50,
                 "train": False},
    },
    "compare_case_study": {
        "kind": "compare", "jobs": 1, "argv": ["compare-placement", CASE],
        "spec": dict(CASE_SPEC, budgets=[25.0, 50.0, 100.0, 200.0]),
    },
    "train_mlp_parallel": {
        "kind": "run", "jobs": 2,
        "argv": ["run", CASE, "--model.kind=mlp", "--data.partition=iid",
                 "--fl.num_users=70", "--fl.fraction=0.1", "--scenario.form=mixed",
                 "--scenario.energy_budget_j=300"],
        "spec": {"num_users": 70, "fraction": 0.1, "repeats": 20, "max_rounds": 100,
                 "train": True, "budget": 300.0},
    },
}


@dataclass
class Invocation:
    """One finished `agifl` process: its timings, peak memory and outcome.

    The times leave out launch.py's two calibrations; `calibration_s` is
    their mean.
    """

    wall_s: float
    setup_s: float
    calibration_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    probe: dict
    problems: list = field(default_factory=list)
    client_rounds: int = 0
    digest: dict | None = None

    @property
    def ok(self):
        return self.exit_code == 0 and not self.problems

    @property
    def speed_scale(self):
        """Factor that brings this process's times to the nominal host speed."""
        return CALIBRATION_NOMINAL_S / self.calibration_s


def launch(argv, out_dir, deadline, setup_only=False, trace=False):
    """Run launch.py on `argv` in a fresh process and time it from outside."""
    out_dir.mkdir(parents=True, exist_ok=True)
    probe_path = out_dir / "probe.json"
    cmd = [sys.executable, str(HERE / "launch.py"), "--probe", str(probe_path)]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
    cmd += ["--", *argv, "--out", str(out_dir)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)
    with open(out_dir / "stdout.txt", "w") as out, open(out_dir / "stderr.txt", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        watchdog = threading.Timer(max(1.0, deadline - start), _kill_group, [proc.pid])
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    probe = json.loads(probe_path.read_text()) if probe_path.exists() else {}
    first = probe.get("first_run_scenario")
    calibration = probe.get("calibration_s", [math.nan, math.nan])
    setup_s = first - start - calibration[0] if first is not None else math.nan
    if probe and Path(probe["agifl"]).resolve().parent != (ROOT / "src" / "agifl").resolve():
        proc.returncode = proc.returncode or 3  # imported a copy from elsewhere
    return Invocation(end - start - sum(calibration), setup_s, statistics.fmean(calibration),
                      usage.ru_utime + usage.ru_stime - sum(calibration),
                      usage.ru_maxrss / 1024.0, proc.returncode, probe)


def _kill_group(pid):
    try:
        os.killpg(pid, 9)
    except ProcessLookupError:
        pass


def invocation_seed(seed, index):
    """The `--seed` of a run's index-th input: seed, seed + 16, seed + 32, ...

    Budget halts make the work of an invocation depend on its seed (the
    `local_train` calls of `compare_case_study` differ by 12% between the
    quartiles of seeds 1-10), so every invocation of a run takes a seed of
    its own. Runs on seeds 0-15 use disjoint seeds, and each of their first
    invocations is checked against reference.json.
    """
    return seed + SEED_STRIDE * index


def run_checked(name, seed, index, deadline, reference, trace=False, jobs=None,
                keep_digest=False):
    """One full invocation of a workload, with its outputs checked."""
    wl = WORKLOADS[name]
    out_dir = WORK / name / f"inv{index:03d}"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = wl["argv"] + ["--seed", str(seed), "--jobs", str(jobs or wl["jobs"])]
    inv = launch(argv, out_dir, deadline, trace=trace)
    if inv.exit_code == 0:
        try:
            stdout = (out_dir / "stdout.txt").read_text()
            summary = check.summarise(wl["kind"], out_dir, stdout, wl["spec"])
            inv.problems = check.check(wl["kind"], summary, wl["spec"], seed, name, reference)
            inv.client_rounds = check.client_rounds(wl["kind"], summary, wl["spec"])
            if keep_digest:
                inv.digest = check.digest(wl["kind"], summary, wl["spec"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            inv.problems = [f"unreadable output: {exc!r}"]
    else:
        inv.problems = [f"exit code {inv.exit_code}: "
                        + (out_dir / "stderr.txt").read_text().strip()[-500:]]
    shutil.rmtree(out_dir, ignore_errors=True)
    return inv


def warm_up(name, seed, deadline):
    """A set-up-only invocation, not counted: it byte-compiles the package."""
    wl = WORKLOADS[name]
    out_dir = WORK / name / "warm_up"
    argv = wl["argv"] + ["--seed", str(seed), "--jobs", str(wl["jobs"])]
    launch(argv, out_dir, deadline, setup_only=True)
    shutil.rmtree(out_dir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else math.nan


def _mean(values):
    return statistics.fmean(values) if values else math.nan


def measure(name, seed, seconds, reference):
    """Closed loop of full invocations; end-to-end metrics over the run."""
    start = time.monotonic()
    stop, deadline = start + seconds, start + RUN_LIMIT_S
    warm_up(name, seed, deadline)
    full, steps = [], []
    while True:
        t0 = time.monotonic()
        full.append(run_checked(name, invocation_seed(seed, len(full)), len(full),
                                deadline, reference))
        steps.append(time.monotonic() - t0)
        if time.monotonic() + _median(steps) / 2 > stop:
            break
    ok = [inv for inv in full if inv.ok]
    metrics = {
        "wall_s": _mean([inv.wall_s * inv.speed_scale for inv in ok]),
        "setup_s": _mean([inv.setup_s * inv.speed_scale for inv in ok]),
        "client_rounds_per_s": _rate(ok, lambda inv: inv.speed_scale),
        "peak_rss_mb": _median([inv.peak_rss_mb for inv in ok]),
    }
    raw = {"wall_s": _mean([inv.wall_s for inv in ok]),
           "setup_s": _mean([inv.setup_s for inv in ok]),
           "client_rounds_per_s": _rate(ok, lambda inv: 1.0),
           "wall_s_median": _median([inv.wall_s for inv in ok]),
           "cpu_s": _mean([inv.cpu_s for inv in ok])}
    return full, metrics, {"invocations": len(ok),
                           "calibration_s": _mean([inv.calibration_s for inv in ok]),
                           "raw": raw}


def _rate(invocations, scale):
    """Client-rounds of the invocations over their summed (wall_s - setup_s)."""
    busy_s = sum((inv.wall_s - inv.setup_s) * scale(inv) for inv in invocations)
    return sum(inv.client_rounds for inv in invocations) / busy_s if busy_s else math.nan


def _busy(trace, span):
    return trace["spans"].get(span, [0, 0.0, 0.0])


def layer_metrics(trace):
    """Per-layer metrics of one traced invocation, by BENCHMARK.json name."""
    extra = trace["extra"]
    layers = trace["layers"]
    local_train = _busy(trace, "models.local_train")
    run_repeat = _busy(trace, "scenario.run_repeat")
    link_rate = _busy(trace, "channel.link_rate")
    select = _busy(trace, "fedavg.select_clients")
    add = _busy(trace, "energy.add_round")[0]
    drop = _busy(trace, "energy.drop_last_round")[0]
    msd_calls = _busy(trace, "placement.min_sum_dist")[0]
    client_rounds = extra["scenario.client_rounds_simulated"]
    rounds = extra["scenario.rounds_attempted"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "models.local_train.calls": local_train[0],
        "models.local_train.busy_s": local_train[1],
        "models.evaluate.busy_s": _busy(trace, "models.evaluate")[1],
        "models.sgd_steps": extra["models.sgd_steps"],
        "models.sgd_steps_per_s": ratio(extra["models.sgd_steps"], local_train[1]),
        "channel.link_rate.calls": link_rate[0],
        "channel.busy_s": layers.get("channel", 0.0),
        "channel.calls_per_client_round": ratio(link_rate[0], client_rounds),
        "energy.busy_s": layers.get("energy", 0.0),
        "energy.add_round.calls": add,
        "energy.drop_last_round.calls": drop,
        "energy.kept_round_ratio": ratio(add - drop, add),
        "scenario.run_repeat.busy_s": run_repeat[1],
        "scenario.self_s": run_repeat[1] - run_repeat[2],
        "scenario.client_rounds_simulated": client_rounds,
        "fedavg.select_clients.calls": select[0],
        "fedavg.selections_per_round": ratio(select[0], rounds),
        "fedavg.aggregate.busy_s": _busy(trace, "fedavg.aggregate")[1],
        "data.load_source.calls": _busy(trace, "data.load_source")[0],
        "data.load_source.busy_s": _busy(trace, "data.load_source")[1],
        "data.partition.busy_s": _busy(trace, "data.partition")[1],
        "placement.min_sum_dist.busy_s": _busy(trace, "placement.min_sum_dist")[1],
        "placement.iterations": extra["placement.iterations"],
        "placement.fallback_steps": extra["placement.fallback_steps"],
        "placement.converged_ratio": ratio(extra["placement.converged"], msd_calls),
        "reports.busy_s": layers.get("reports", 0.0),
        "reports.bytes_written": extra["reports.bytes_written"],
        "config.load_config.busy_s": _busy(trace, "config.load_config")[1],
        "seeding.child_seed.calls": _busy(trace, "seeding.child_seed")[0],
    }


def measure_traced(name, seed, seconds, reference):
    """Alternate untraced and traced invocations (`--jobs 1`)."""
    start = time.monotonic()
    stop, deadline = start + seconds, start + RUN_LIMIT_S
    warm_up(name, seed, deadline)
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        inv_seed = invocation_seed(seed, len(plain))
        plain.append(run_checked(name, inv_seed, 2 * len(plain), deadline, reference, jobs=1))
        traced.append(run_checked(name, inv_seed, 2 * len(traced) + 1, deadline, reference,
                                  trace=True, jobs=1))
        if time.monotonic() + (time.monotonic() - t0) > stop:
            break
    per_inv = [layer_metrics(inv.probe["trace"]) for inv in traced if inv.ok]
    metrics = {key: _median([m[key] for m in per_inv]) for key in per_inv[0]} if per_inv else {}
    overhead = (_median([i.wall_s for i in traced if i.ok])
                - _median([i.wall_s for i in plain if i.ok]))
    return plain + traced, metrics, {"trace_overhead_s": overhead,
                                     "traced_invocations": len(per_inv)}


def environment():
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "thread_pins": THREAD_PINS,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "agifl" / "cli.py").is_file() or not (ROOT / CASE).is_file():
        print(f"error: {ROOT} holds no agifl source checkout (src/agifl, configs/)",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = benchmark["per_layer" if opts.trace else "end_to_end"]

    reference = json.loads(check.REFERENCE_FILE.read_text())
    if opts.trace:
        invocations, metrics, extra = measure_traced(opts.workload, opts.seed,
                                                     opts.seconds, reference)
    else:
        invocations, metrics, extra = measure(opts.workload, opts.seed,
                                              opts.seconds, reference)
    shutil.rmtree(WORK / opts.workload, ignore_errors=True)

    failed = [inv for inv in invocations if not inv.ok]
    for inv in failed[:5]:
        print(f"failed invocation: {inv.problems[:3]}", file=sys.stderr)
    if not metrics or any(not math.isfinite(metrics.get(m["name"], math.nan))
                          for m in wanted):
        print("error: no successful invocation to measure", file=sys.stderr)
        return 1

    env = dict(environment(), workload=opts.workload, seed=opts.seed,
               seconds=opts.seconds, trace=opts.trace,
               failed_frac=len(failed) / len(invocations), samples=extra)
    print(json.dumps({"env": env}))
    result = {
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
