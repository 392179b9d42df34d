"""Command-line front end.

    agifl run <config> [--out DIR] [--jobs N] [--seed N] [--section.key=value ...]
    agifl compare-placement <config> [--out DIR] [--jobs N] [--seed N] [...]
    agifl oracle rate|placement|aggregate [args ...]

`run` executes the configured scenario and writes one CSV per repeat plus a
per-round mean CSV. `compare-placement` runs the min-sum-distance and
random hovering schemes on paired seeds and emits the energy-versus-rounds
and accuracy-versus-budget comparisons as CSV and SVG; each scheme trains
once, under the largest budget, and every budget is read off that run.
`oracle` prints independently computed reference values (direct rate
formula, grid-search placement, hand-rule weighted mean) for checking the
simulator against.

Exit codes: 0 success, 1 malformed or invalid config or arguments
(including a partition the dataset cannot satisfy), 2 dataset I/O
failure.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, load_config, parse_overrides
from .data import check_partition
from .oracles import grid_placement, rate_direct, weighted_mean_direct
from .reports import svg_line_chart, write_mean_csv, write_repeat_csv, write_series_csv
from .scenario import load_corpus, run_scenario

__all__ = ["main"]


def _load(args, extra):
    overrides = parse_overrides(extra)
    if args.seed is not None:
        overrides[("scenario", "master_seed")] = str(args.seed)
    return load_config(args.config, overrides)


def _preflight_data(scenario) -> int:
    """Load the corpus (into the cache the runs read) before any run: returns
    2 if it cannot be read, and raises ConfigError if it cannot be
    partitioned as configured."""
    try:
        train, _ = load_corpus(scenario.source, scenario.master_seed)
    except (OSError, ValueError) as exc:
        print(f"error: dataset: {exc}", file=sys.stderr)
        return 2
    try:
        check_partition(train.num_samples, scenario.fl.num_users,
                        scenario.partition_scheme, scenario.shards_per_user)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return 0


def _halt_counts(reasons) -> str:
    """How many repeats halted for each reason, e.g. `budget:18,max_rounds:2`."""
    return ",".join(f"{r}:{reasons.count(r)}" for r in sorted(set(reasons)))


def _cmd_run(args, extra) -> int:
    cfg = _load(args, extra)
    scenario = cfg.scenario
    code = _preflight_data(scenario)
    if code:
        return code

    result = run_scenario(scenario, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scheme = scenario.placement_scheme
    for rep in result.repeats:
        write_repeat_csv(out / f"{scheme}_rep{rep.repeat:02d}.csv", rep.metrics)
    write_mean_csv(out / f"{scheme}_mean.csv", result)

    final_energy = (result.mean("cum_uav_energy")[-1]
                    if result.common_rounds else 0.0)
    print(f"run: scheme={scheme} repeats={scenario.repeats} "
          f"rounds={result.common_rounds} "
          f"mean_cum_uav_energy_j={final_energy:.6g} "
          f"mean_best_acc={result.mean_best_accuracy:.4f} "
          f"halt={result.halt_reasons[0]} "
          f"halts={_halt_counts(result.halt_reasons)}")
    return 0


def _cmd_compare(args, extra) -> int:
    cfg = _load(args, extra)
    base = cfg.scenario
    code = _preflight_data(base)
    if code:
        return code

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if base.placement_scheme == "fixed":  # degenerate check mode
        schemes = [("fixed", "fixed"), ("fixed_2", "fixed")]
    else:
        schemes = [("min_sum_dist", "min_sum_dist"), ("random", "random")]

    # panel A: cumulative server energy vs training rounds (timing only)
    energy_curves = []
    for label, scheme in schemes:
        result = run_scenario(replace(base, placement_scheme=scheme, train=False),
                              jobs=args.jobs)
        energy_curves.append((label, result.mean("cum_uav_energy")))
    rounds = list(range(1, min(len(c) for _, c in energy_curves) + 1))
    write_series_csv(out / "compare_energy.csv", "round", rounds,
                     [(f"{label}_cum_energy_j", curve) for label, curve in energy_curves])
    svg_line_chart(out / "compare_energy.svg",
                   [(label, rounds, list(curve)) for label, curve in energy_curves],
                   "Server energy vs training rounds", "round",
                   "cumulative energy (J)")

    # panel B: best accuracy vs energy budget, one run per scheme
    if cfg.compare_budgets and base.train:
        acc_columns = []
        for label, scheme in schemes:
            result = run_scenario(replace(base, placement_scheme=scheme,
                                          energy_budget=max(cfg.compare_budgets),
                                          repeats=cfg.compare_repeats),
                                  jobs=args.jobs)
            acc_columns.append((label, [result.mean_best_accuracy_within(b)
                                        for b in cfg.compare_budgets]))
        write_series_csv(out / "compare_accuracy.csv", "budget_j",
                         cfg.compare_budgets,
                         [(f"{label}_best_acc", accs) for label, accs in acc_columns])
        svg_line_chart(out / "compare_accuracy.svg",
                       [(label, cfg.compare_budgets, accs)
                        for label, accs in acc_columns],
                       "Best accuracy vs energy budget", "energy budget (J)",
                       "best test accuracy")

    print(f"compare-placement: wrote {out}/compare_energy.csv"
          + (f" and {out}/compare_accuracy.csv"
             if cfg.compare_budgets and base.train else ""))
    return 0


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
    users = []
    for point in raw.split(";"):
        x, y = point.split(",")
        users.append((float(x), float(y)))
    return users


def _cmd_oracle(tokens) -> int:
    if not tokens:
        print("usage: agifl oracle rate|placement|aggregate [key=value ...]",
              file=sys.stderr)
        return 1
    sub, rest = tokens[0], tokens[1:]
    try:
        if sub == "rate":
            v = _parse_kv(rest, {
                "bandwidth_hz": (float, 5e5),
                "tx_power_w": (float, 0.1),
                "altitude_m": (float, 100.0),
                "horizontal_m": (float, 0.0),
                "alpha0_linear": (float, 1e-5),
                "noise_w": (float, 1e-12),
            })
            rate = rate_direct(v["bandwidth_hz"], v["tx_power_w"], v["altitude_m"],
                               v["horizontal_m"], v["alpha0_linear"], v["noise_w"])
            print(format(rate, ".10g"))
        elif sub == "placement":
            v = _parse_kv(rest, {
                "users": (_parse_users, None),
                "altitude_m": (float, 100.0),
                "grid_m": (float, 1.0),
                "refine_m": (float, 0.01),
            })
            if v["users"] is None:
                raise ValueError("placement needs users=x1,y1;x2,y2;...")
            x, y, obj = grid_placement(v["users"], v["altitude_m"],
                                       v["grid_m"], v["refine_m"])
            print(f"{format(x, '.10g')} {format(y, '.10g')} {format(obj, '.10g')}")
        elif sub == "aggregate":
            updates = []
            for token in rest:
                body, _, count = token.partition("x")
                values = [float(t) for t in body.strip("[]").split(",")]
                updates.append((values, int(count)))
            result = weighted_mean_direct(updates)
            print("[" + ", ".join(format(v, ".10g") for v in result) + "]")
        else:
            print(f"error: unknown oracle subcommand {sub!r}", file=sys.stderr)
            return 1
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "oracle":
        return _cmd_oracle(argv[1:])

    parser = argparse.ArgumentParser(prog="agifl")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare-placement"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the INI run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel repeat processes")
        p.add_argument("--seed", type=int, default=None,
                       help="override scenario.master_seed")

    args, extra = parser.parse_known_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, extra)
        return _cmd_compare(args, extra)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
