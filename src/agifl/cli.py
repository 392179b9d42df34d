"""Command-line front end.

    agifl run <config> [--out DIR] [--jobs N] [--seed N] [--section.key=value ...]
    agifl compare-placement <config> [--out DIR] [--jobs N] [--seed N] [...]
    agifl oracle rate|placement|aggregate [key=value ...]

`run` executes the configured scenario and writes one CSV per repeat plus a
per-round mean CSV. `compare-placement` runs the min-sum-distance and
random hovering schemes on paired seeds, whatever placement the config
names, and emits the energy-versus-rounds and accuracy-versus-budget
comparisons as CSV and SVG; each scheme runs once, under the largest
budget, and every budget is read off that run. The schemes share their
cohorts and training (see `scenario`).
`oracle` prints independently computed reference values (direct rate
formula, grid-search placement, hand-rule weighted mean) for checking the
simulator against.

One parser reads every command line. `run` and `compare-placement` load
the config and the corpus once, before any run, and write `--out` only
after their last run, so a refused command leaves no directory.

Exit codes: 0 success; 1 for every refusal, printed as one `error:` line:
a malformed command line, config or oracle argument, an invalid value, and
a refusal raised during a run (such as a partition the dataset cannot
satisfy or a round that would never end), also from a pool worker, and an
`--out` that cannot be created or written; 2 when the dataset cannot be
read.

A command that succeeds ends with `gc.freeze()`: what is still alive (the
modules, classes and functions of the imports, and the run's results)
moves to the collector's permanent generation, which the interpreter's
final collections skip, so exit does not free it object by object. A
refusal freezes nothing. `main` thaws that generation (`gc.unfreeze()`)
on entry, so a caller that calls `main` repeatedly in one process holds
at most one call's frozen heap, and the cycles an earlier call left
become collectable again.
"""

import argparse
import gc
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, _float, load_config, parse_overrides
from .oracles import grid_placement, rate_direct, weighted_mean_direct
from .reports import svg_line_chart, write_mean_csv, write_repeat_csv, write_series_csv
from .scenario import load_corpus, run_scenario

__all__ = ["main"]


def _halt_counts(reasons) -> str:
    """How many repeats halted for each reason, e.g. `budget:18,max_rounds:2`."""
    return ",".join(f"{r}:{reasons.count(r)}" for r in sorted(set(reasons)))


def _cmd_run(cfg, out: Path, jobs: int) -> None:
    scenario = cfg.scenario
    result = run_scenario(scenario, jobs=jobs)
    out.mkdir(parents=True, exist_ok=True)
    scheme = scenario.placement_scheme
    for rep in result.repeats:
        write_repeat_csv(out / f"{scheme}_rep{rep.repeat:02d}.csv", rep.metrics)
    write_mean_csv(out / f"{scheme}_mean.csv", result)

    # with no common round, where every ledger's server total starts: the
    # flight energy (as in EnergyLedger, 0.0 + makes -0.0 read 0.0)
    final_energy = (result.mean("cum_uav_energy")[-1] if result.common_rounds
                    else 0.0 + scenario.initial_flight_energy)
    print(f"run: scheme={scheme} repeats={scenario.repeats} "
          f"rounds={result.common_rounds} "
          f"mean_cum_uav_energy_j={final_energy:.6g} "
          f"mean_best_acc={result.mean_best_accuracy_within(math.inf):.4f} "
          f"halt={result.halt_reasons[0]} "
          f"halts={_halt_counts(result.halt_reasons)}")


def _cmd_compare(cfg, out: Path, jobs: int) -> None:
    base = cfg.scenario
    schemes = ["min_sum_dist", "random"]  # whatever placement the config names
    accuracy = bool(cfg.compare_budgets) and base.train

    # panel A: cumulative server energy vs training rounds (timing only)
    energy_curves = []
    for scheme in schemes:
        result = run_scenario(replace(base, placement_scheme=scheme, train=False),
                              jobs=jobs)
        energy_curves.append((scheme, result.mean("cum_uav_energy")))
    # panel B: best accuracy vs energy budget, one run per scheme
    acc_columns = []
    if accuracy:
        for scheme in schemes:
            result = run_scenario(replace(base, placement_scheme=scheme,
                                          energy_budget=max(cfg.compare_budgets),
                                          repeats=cfg.compare_repeats),
                                  jobs=jobs)
            acc_columns.append((scheme, [result.mean_best_accuracy_within(b)
                                        for b in cfg.compare_budgets]))

    out.mkdir(parents=True, exist_ok=True)
    rounds = list(range(1, min(len(c) for _, c in energy_curves) + 1))
    write_series_csv(out / "compare_energy.csv", "round", rounds,
                     [(f"{label}_cum_energy_j", curve) for label, curve in energy_curves])
    svg_line_chart(out / "compare_energy.svg",
                   [(label, rounds, list(curve)) for label, curve in energy_curves],
                   "Server energy vs training rounds", "round",
                   "cumulative energy (J)")
    if accuracy:
        write_series_csv(out / "compare_accuracy.csv", "budget_j",
                         cfg.compare_budgets,
                         [(f"{label}_best_acc", accs) for label, accs in acc_columns])
        svg_line_chart(out / "compare_accuracy.svg",
                       [(label, cfg.compare_budgets, accs)
                        for label, accs in acc_columns],
                       "Best accuracy vs energy budget", "energy budget (J)",
                       "best test accuracy")

    print(f"compare-placement: wrote {out}/compare_energy.csv"
          + (f" and {out}/compare_accuracy.csv" if accuracy else ""))


def _parse_kv(tokens, schema):
    values = {key: default for key, (_, default) in schema.items()}
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, raw = token.split("=", 1)
        if key not in schema:
            raise ValueError(f"unknown oracle argument {key!r}")
        values[key] = schema[key][0](raw)
    return values


def _parse_users(raw):
    return [(_float(x), _float(y)) for x, y in (point.split(",") for point in raw.split(";"))]


def _cmd_oracle(model: str, tokens) -> None:
    if model == "rate":
        v = _parse_kv(tokens, {
            "bandwidth_hz": (_float, 5e5),
            "tx_power_w": (_float, 0.1),
            "altitude_m": (_float, 100.0),
            "horizontal_m": (_float, 0.0),
            "alpha0_linear": (_float, 1e-5),
            "noise_w": (_float, 1e-12),
        })
        rate = rate_direct(v["bandwidth_hz"], v["tx_power_w"], v["altitude_m"],
                           v["horizontal_m"], v["alpha0_linear"], v["noise_w"])
        print(format(rate, ".10g"))
    elif model == "placement":
        v = _parse_kv(tokens, {
            "users": (_parse_users, None),
            "altitude_m": (_float, 100.0),
            "grid_m": (_float, 1.0),
            "refine_m": (_float, 0.01),
        })
        if v["users"] is None:
            raise ValueError("placement needs users=x1,y1;x2,y2;...")
        x, y, obj = grid_placement(v["users"], v["altitude_m"],
                                   v["grid_m"], v["refine_m"])
        print(f"{format(x, '.10g')} {format(y, '.10g')} {format(obj, '.10g')}")
    else:  # aggregate
        parts = [token.partition("x") for token in tokens]
        updates = [([_float(t) for t in body.strip("[]").split(",")], int(count))
                   for body, _, count in parts]
        result = weighted_mean_direct(updates)
        print("[" + ", ".join(format(v, ".10g") for v in result) + "]")


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ConfigError on a bad command line, where argparse would print
    its usage and exit 2 (the code of a dataset I/O failure here)."""

    def error(self, message):
        raise ConfigError(message)


def _jobs(raw: str) -> int:
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return int(raw)


_COMMANDS = {"run": _cmd_run, "compare-placement": _cmd_compare}


def main(argv=None) -> int:
    """Run one `agifl` command line; returns its exit code.

    Thaws the heap an earlier call froze, and freezes the heap this call
    leaves when it returns 0 (see the module docstring): a caller that
    needs the collector to reclaim the objects alive at that return calls
    `gc.unfreeze()` itself.
    """
    gc.unfreeze()
    parser = _ArgumentParser(prog="agifl")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the INI run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--jobs", type=_jobs, default=1,
                       help="processes, each running one share of the repeats")
        p.add_argument("--seed", type=int, default=None,
                       help="override scenario.master_seed")
    sub.add_parser("oracle").add_argument(
        "model", choices=["rate", "placement", "aggregate"],
        help="the reference to compute, followed by its key=value arguments")

    try:
        # the tokens no option takes: overrides, or the oracle's arguments
        args, extra = parser.parse_known_args(sys.argv[1:] if argv is None else argv)
        if args.command == "oracle":
            _cmd_oracle(args.model, extra)
        else:
            overrides = parse_overrides(extra)
            if args.seed is not None:
                overrides[("scenario", "master_seed")] = str(args.seed)
            cfg = load_config(args.config, overrides)
            try:
                load_corpus(cfg.scenario.source, cfg.scenario.master_seed)
            except (OSError, ValueError) as exc:
                print(f"error: dataset: {exc}", file=sys.stderr)
                return 2
            _COMMANDS[args.command](cfg, Path(args.out), args.jobs)
    except (OSError, ValueError) as exc:  # ConfigError; an --out it cannot make or write
        print(f"error: {exc}", file=sys.stderr)
        return 1
    gc.freeze()
    return 0


if __name__ == "__main__":
    sys.exit(main())
