"""Run one `agifl` CLI invocation with the benchmark's probes installed.

    python3 perfbench/launch.py --probe FILE [--setup-only] [--trace] -- ARGS...

ARGS are the arguments of the `agifl` command (`run CONFIG ...`). The
invocation is the CLI's own `main`, exactly as the console script calls it;
the probes only rebind names from outside the program, so no file of the
package changes:

- always: `cli.run_scenario` is rebound to note the monotonic clock at its
  first call, which ends set-up (imports, config, data preflight);
- always: a fixed computation (`calibrate`) is timed once before the
  package is imported and once after the command returns, so that the
  parent can take the host's speed out of this process's times;
- `--setup-only`: the process exits at that first call instead;
- `--trace`: every public function of every `agifl` module is wrapped where
  another `agifl` module binds it (plus the `EnergyLedger` methods and the
  few same-module calls listed in OWN_MODULE_CALLS), and busy time and call
  counts are kept per function and per layer.

The probe file receives one JSON object: the first-call time, the two
calibration times, the exit code and, when tracing, the counters.
"""

import argparse
import functools
import importlib
import inspect
import json
import math
import pkgutil
import sys
import time
from pathlib import Path

# Same-module calls the per-layer metrics need; every other public name is
# wrapped only where another module imports it, so the inner loops of a
# layer (e.g. models.loss_and_grad inside local_train) stay unwrapped.
OWN_MODULE_CALLS = {
    ("agifl.scenario", "run_repeat"),    # scenario.run_repeat.busy_s, self_s
    ("agifl.scenario", "load_source"),   # the data cache's load
    ("agifl.fedavg", "select_clients"),  # the selection inside run_round
    ("agifl.fedavg", "aggregate"),
}

CALIBRATION_STEPS = 700_000  # about 0.2 s of pure Python

# load_source lives in scenario but materialises datasets.
LAYER_OF = {("agifl.scenario", "load_source"): "data"}


class _SetupDone(BaseException):
    """Raised at the first run_scenario call of a set-up-only probe."""


class Tracer:
    """Call counts and busy time per wrapped function and per layer.

    A layer's busy time counts only its outermost spans, so a layer
    calling into itself is not counted twice. Each span also sums the time
    of the wrapped spans it directly encloses, which gives its self time.
    """

    def __init__(self):
        self.stats = {}  # span name -> [calls, busy_s, child_s]
        self.layers = {}  # layer -> [depth, busy_s]
        self.stack = []  # per open span: time of the spans it encloses
        self.extra = {
            "placement.iterations": 0, "placement.fallback_steps": 0,
            "placement.converged": 0, "reports.bytes_written": 0,
            "models.sgd_steps": 0, "scenario.rounds_attempted": 0,
            "scenario.client_rounds_simulated": 0,
        }
        self._shard_sizes = None

    def wrap(self, layer, name, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        cell = self.layers.setdefault(layer, [0, 0.0])
        stack = self.stack
        push, pop, clock = stack.append, stack.pop, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            push(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[2] += pop()
                if stack:
                    stack[-1] += dt
                cell[0] -= 1
                if not cell[0]:
                    cell[1] += dt
                stat[0] += 1
                stat[1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # hooks that count work from return values -------------------------

    def min_sum_dist(self, fn):
        """Pass a SolverTrace in when the caller gave none, and keep it."""
        from agifl.placement import SolverTrace

        def with_trace(*args, **kwargs):
            if kwargs.get("trace") is not None:
                return fn(*args, **kwargs)
            trace = SolverTrace()
            result = fn(*args, **kwargs, trace=trace)
            self.extra["placement.iterations"] += trace.iterations
            self.extra["placement.fallback_steps"] += trace.fallback_steps
            self.extra["placement.converged"] += int(trace.converged)
            return result

        return functools.wraps(fn)(with_trace)

    def after_partition(self, args, kwargs, shards):
        self._shard_sizes = [len(shard) for shard in shards]

    def after_run_repeat(self, args, kwargs, rep):
        scenario = args[0] if args else kwargs["scenario"]
        if scenario.train and self._shard_sizes is not None:
            hyper = scenario.fl.hyper
            for m in rep.metrics:
                self.extra["models.sgd_steps"] += sum(
                    hyper.local_epochs * math.ceil(self._shard_sizes[u] / hyper.batch_size)
                    for u in m.selected)
        self._shard_sizes = None

    def after_run_scenario(self, args, kwargs, result):
        scenario = args[0] if args else kwargs["scenario"]
        cohort = max(1, round(scenario.fl.fraction * scenario.fl.num_users))
        for rep in result.repeats:
            dropped = 1 if rep.halt_reason == "budget" else 0
            self.extra["scenario.rounds_attempted"] += len(rep.metrics) + dropped
            self.extra["scenario.client_rounds_simulated"] += (
                sum(len(m.selected) for m in rep.metrics) + dropped * cohort)

    def after_report(self, args, kwargs, result):
        self.extra["reports.bytes_written"] += Path(args[0]).stat().st_size

    def snapshot(self):
        return {"spans": self.stats,
                "layers": {layer: busy for layer, (_, busy) in self.layers.items()},
                "extra": self.extra}


def _agifl_modules():
    import agifl
    names = sorted(m.name for m in pkgutil.iter_modules(agifl.__path__))
    return [importlib.import_module(f"agifl.{name}") for name in names]


def _traced_functions(module):
    """Functions named in `__all__` (public names without one), plus the
    module's entries in OWN_MODULE_CALLS."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    names = list(names) + [n for m, n in OWN_MODULE_CALLS if m == module.__name__]
    return {name: getattr(module, name) for name in names
            if inspect.isfunction(getattr(module, name))
            and getattr(module, name).__module__ == module.__name__}


def install_tracer(tracer):
    """Rebind every traced name; returns the number of bindings replaced."""
    hooks = {"partition": tracer.after_partition, "run_repeat": tracer.after_run_repeat,
             "run_scenario": tracer.after_run_scenario}
    modules = _agifl_modules()
    wrapped = {}  # id(function) -> (defining module, name, wrapper)
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for name, fn in _traced_functions(module).items():
            layer = LAYER_OF.get((module.__name__, name), short)
            inner = tracer.min_sum_dist(fn) if name == "min_sum_dist" else fn
            after = tracer.after_report if short == "reports" else hooks.get(name)
            wrapped[id(fn)] = (module, name, tracer.wrap(layer, f"{layer}.{name}", inner, after))

    count = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit and (hit[0] is not module or (module.__name__, hit[1]) in OWN_MODULE_CALLS):
                setattr(module, attr, hit[2])
                count += 1

    from agifl.energy import EnergyLedger
    for name, fn in list(vars(EnergyLedger).items()):
        if inspect.isfunction(fn) and not name.startswith("_"):
            setattr(EnergyLedger, name, tracer.wrap("energy", f"energy.{name}", fn))
            count += 1
    return count


def calibrate():
    """Time a fixed pure-Python computation on this process's CPU, now.

    Like the set-up, it is interpreter-bound dict and float
    work; no part of it depends on the program.
    """
    t0 = time.perf_counter()
    acc = {}
    for i in range(CALIBRATION_STEPS):
        acc[i % 97] = acc.get(i % 97, 0.0) + (i * 0.5) ** 0.5
    return time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--probe", required=True, help="JSON file to write")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    calibration_s = [calibrate()]
    import agifl.cli as cli

    probe = {"agifl": sys.modules["agifl"].__file__, "first_run_scenario": None,
             "calibration_s": calibration_s}
    tracer = Tracer() if opts.trace else None
    if tracer is not None:
        probe["bindings"] = install_tracer(tracer)

    inner = cli.run_scenario

    @functools.wraps(inner)
    def timed_run_scenario(*a, **k):
        if probe["first_run_scenario"] is None:
            probe["first_run_scenario"] = time.monotonic()
            if opts.setup_only:
                raise _SetupDone
        return inner(*a, **k)

    cli.run_scenario = timed_run_scenario
    try:
        code = cli.main(args)
    except _SetupDone:
        code = 0
    calibration_s.append(calibrate())
    probe["exit"] = code
    if tracer is not None:
        probe["trace"] = tracer.snapshot()
    with open(opts.probe, "w") as f:
        json.dump(probe, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
