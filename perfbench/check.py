"""Output checks for the benchmark's workloads.

Every invocation's output directory is summarised (`summarise`) and then
checked twice:

- invariants that hold for any seed: CSV headers and round numbering,
  cohort size and sorted unique ids in `selected`, the cumulative energy
  equal to the running sum of per-round energy and within the budget, the
  mean CSV equal to the mean of the repeat CSVs, accuracy in [0, 1] or NaN
  on timing-only runs, on compare the min-sum-distance energy below the
  random one at every round and best accuracy non-decreasing in budget;
  the `selected` ids are also recomputed from the documented seed
  derivation (blake2b over (master seed, repeat, round, "select")) by an
  implementation independent of the package;
- against `reference.json`, recorded at the commit that defined the
  benchmark, when the seed was recorded there: integers exactly (round
  counts, halt reasons, a sha256 over each repeat's `selected` column),
  floats within REL_TOL.

`check` returns a list of problems; an empty list means correct.
"""

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

# Relative tolerance for floats against the recorded reference. The CSVs
# print 12 significant digits; 1e-9 admits summation-order drift from a
# vectorised or lane-batched rewrite and nothing larger.
REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_FILE = Path(__file__).with_name("reference.json")

RUN_HEADER = ["round", "duration_s", "uav_energy_j", "cum_uav_energy_j",
              "test_loss", "test_acc", "selected"]
FLOAT_COLUMNS = RUN_HEADER[1:6]


def _child_seed(*parts):
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, str):
            h.update(b"s" + part.encode("utf-8"))
        else:
            h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def expected_selection(seed, repeat, rnd, num_users, cohort):
    gen = np.random.default_rng(_child_seed(_child_seed(seed, repeat), rnd, "select"))
    return [int(u) for u in np.sort(gen.choice(num_users, size=cohort, replace=False))]


def cohort_size(spec):
    return max(1, round(spec["fraction"] * spec["num_users"]))


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _floats(rows, columns, header):
    return {c: [float(r[header.index(c)]) for r in rows] for c in columns}


def summarise(kind, out_dir, stdout, spec):
    """Read the outputs of one invocation into a JSON-able dict."""
    out = Path(out_dir)
    if kind == "compare":
        summary = {}
        for panel in ("energy", "accuracy"):
            header, rows = _read_csv(out / f"compare_{panel}.csv")
            summary[panel] = {"header": header,
                              "columns": _floats(rows, header, header)}
        summary["svg"] = all((out / f"compare_{p}.svg").read_text().rstrip().endswith("</svg>")
                             for p in ("energy", "accuracy"))
        return summary

    repeats = []
    for r in range(spec["repeats"]):
        header, rows = _read_csv(out / f"min_sum_dist_rep{r:02d}.csv")
        selected = [[int(u) for u in row[6].split(";")] for row in rows]
        repeats.append({
            "header": header,
            "rounds": [int(row[0]) for row in rows],
            "floats": _floats(rows, FLOAT_COLUMNS, header),
            "selected": selected,
        })
    header, rows = _read_csv(out / "min_sum_dist_mean.csv")
    line = [l for l in stdout.splitlines() if l.startswith("run:")]
    fields = dict(tok.split("=", 1) for tok in line[-1].split()[1:]) if line else {}
    return {"repeats": repeats, "mean_header": header,
            "mean": _floats(rows, header[1:], header), "stdout": fields}


def client_rounds(kind, summary, spec):
    """Client-rounds the output CSVs report."""
    if kind == "compare":
        rounds = len(summary["energy"]["columns"]["round"])
        return rounds * 2 * spec["repeats"] * cohort_size(spec)
    return sum(len(s) for rep in summary["repeats"] for s in rep["selected"])


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _all_close(xs, ys):
    return len(xs) == len(ys) and all(_close(x, y) for x, y in zip(xs, ys))


def _halt(rep, spec):
    return "max_rounds" if len(rep["rounds"]) == spec["max_rounds"] else "budget"


def _selected_sha(rep):
    text = "\n".join(";".join(map(str, s)) for s in rep["selected"])
    return hashlib.sha256(text.encode()).hexdigest()


def digest(kind, summary, spec):
    """The part of a summary kept in reference.json."""
    if kind == "compare":
        return {p: summary[p]["columns"] for p in ("energy", "accuracy")}
    return {
        "halt": [_halt(rep, spec) for rep in summary["repeats"]],
        "rounds": [len(rep["rounds"]) for rep in summary["repeats"]],
        "selected_sha256": [_selected_sha(rep) for rep in summary["repeats"]],
        "final": [[rep["floats"]["cum_uav_energy_j"][-1] if rep["rounds"] else 0.0,
                   sum(rep["floats"]["duration_s"])] for rep in summary["repeats"]],
        "mean": summary["mean"],
    }


def _invariants_run(summary, spec, seed):
    problems = []
    cohort = cohort_size(spec)
    budget = spec.get("budget", math.inf)
    for r, rep in enumerate(summary["repeats"]):
        tag = f"repeat {r}"
        if rep["header"] != RUN_HEADER:
            problems.append(f"{tag}: header {rep['header']}")
            continue
        n = len(rep["rounds"])
        if rep["rounds"] != list(range(1, n + 1)) or not 1 <= n <= spec["max_rounds"]:
            problems.append(f"{tag}: round numbering")
        if math.isinf(budget) and n != spec["max_rounds"]:
            problems.append(f"{tag}: {n} rounds without a budget")
        f = rep["floats"]
        running = 0.0
        for i in range(n):
            running += f["uav_energy_j"][i]
            if not _close(running, f["cum_uav_energy_j"][i]):
                problems.append(f"{tag} round {i + 1}: cumulative energy")
                break
            running = f["cum_uav_energy_j"][i]
            if running > budget or f["duration_s"][i] <= 0:
                problems.append(f"{tag} round {i + 1}: energy over budget or duration")
                break
            acc = f["test_acc"][i]
            if spec["train"] != (not math.isnan(acc)) or not (math.isnan(acc) or 0 <= acc <= 1):
                problems.append(f"{tag} round {i + 1}: test_acc {acc}")
                break
        for i, sel in enumerate(rep["selected"]):
            if sel != expected_selection(seed, r, i, spec["num_users"], cohort):
                problems.append(f"{tag} round {i + 1}: selected ids differ from "
                                "the seed derivation")
                break
    common = min(len(rep["rounds"]) for rep in summary["repeats"])
    mean = summary["mean"]
    if summary["mean_header"] != RUN_HEADER[:-1]:
        problems.append(f"mean CSV header {summary['mean_header']}")
    elif len(mean["duration_s"]) != common:
        problems.append("mean CSV row count")
    else:
        for col in FLOAT_COLUMNS:
            n = len(summary["repeats"])
            expect = [sum(rep["floats"][col][i] for rep in summary["repeats"]) / n
                      for i in range(common)]
            if not _all_close(expect, mean[col]):
                problems.append(f"mean CSV column {col}")
    fields = summary["stdout"]
    first_halt = _halt(summary["repeats"][0], spec)
    if fields.get("rounds") != str(common) or fields.get("halt") != first_halt:
        problems.append(f"summary line {fields}")
    return problems


def _invariants_compare(summary, spec):
    problems = []
    energy = summary["energy"]["columns"]
    if summary["energy"]["header"] != ["round", "min_sum_dist_cum_energy_j", "random_cum_energy_j"]:
        problems.append(f"energy header {summary['energy']['header']}")
        return problems
    if energy["round"] != [float(i) for i in range(1, spec["max_rounds"] + 1)]:
        problems.append("energy rounds")
    pairs = zip(energy["min_sum_dist_cum_energy_j"], energy["random_cum_energy_j"])
    if not all(m < r for m, r in pairs):
        problems.append("min_sum_dist energy not below random at every round")
    acc = summary["accuracy"]["columns"]
    if acc.get("budget_j") != spec["budgets"]:
        problems.append(f"accuracy budgets {acc.get('budget_j')}")
    for col in ("min_sum_dist_best_acc", "random_best_acc"):
        values = acc.get(col, [])
        if len(values) != len(spec["budgets"]) or any(not 0 <= v <= 1 for v in values) \
                or any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"accuracy column {col}: {values}")
    if not summary["svg"]:
        problems.append("SVG charts incomplete")
    return problems


def _against_reference(kind, got, ref):
    problems = []
    if kind == "compare":
        for panel, columns in ref.items():
            for col, values in columns.items():
                if not _all_close(got[panel].get(col, []), values):
                    problems.append(f"{panel} column {col} differs from the reference")
        return problems
    for key in ("halt", "rounds", "selected_sha256"):
        if got[key] != ref[key]:
            problems.append(f"{key} differs from the reference")
    if not all(_all_close(a, b) for a, b in zip(got["final"], ref["final"])):
        problems.append("per-repeat final energy or time differs from the reference")
    for col, values in ref["mean"].items():
        if not _all_close(got["mean"].get(col, []), values):
            problems.append(f"mean column {col} differs from the reference")
    return problems


def check(kind, summary, spec, seed, workload, reference):
    """Problems found in one invocation's summarised outputs."""
    if kind == "compare":
        problems = _invariants_compare(summary, spec)
    else:
        problems = _invariants_run(summary, spec, seed)
    ref = reference.get(workload, {}).get(str(seed))
    if ref is not None and not problems:
        problems += _against_reference(kind, digest(kind, summary, spec), ref)
    return problems
