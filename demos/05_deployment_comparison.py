"""Reproduce the case-study comparison of the two deployment schemes.

Panel A: cumulative server energy over 100 rounds under the optimized and
random hovering schemes on paired seeds (timing-only, reference scale).
Panel B: best test accuracy as the server's energy budget grows, on a
desk-scale corpus; each scheme trains once under the largest budget and
every smaller budget is read off that run. Writes out/deployment_energy.svg,
out/deployment_accuracy.svg and the matching CSVs.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from agifl import BlobSource, FlConfig, Hyperparams, Scenario, ShapeSource, run_scenario
from agifl.reports import svg_line_chart, write_series_csv

out = Path("out")
out.mkdir(exist_ok=True)
hyper = Hyperparams(learning_rate=0.01, local_epochs=5, batch_size=10)

# panel A
timing = Scenario(
    fl=FlConfig(num_users=100, fraction=0.02, hyper=hyper, max_rounds=100),
    source=ShapeSource(num_samples=60_000, input_dim=784, num_classes=10),
    partition_scheme="sharded", train=False, repeats=20, master_seed=0)
energy = {}
for scheme in ("min_sum_dist", "random"):
    energy[scheme] = run_scenario(replace(timing, placement_scheme=scheme)) \
        .mean("cum_uav_energy")
rounds = list(range(1, 101))
write_series_csv(out / "deployment_energy.csv", "round", rounds,
                 [(f"{s}_cum_energy_j", energy[s]) for s in energy])
svg_line_chart(out / "deployment_energy.svg",
               [(s, rounds, list(energy[s])) for s in energy],
               "Server energy vs training rounds", "round",
               "cumulative energy (J)")
gap = energy["random"] - energy["min_sum_dist"]
print(f"energy gap: {gap[9]:.0f} J after 10 rounds, {gap[-1]:.0f} J after 100")

# panel B
learning = Scenario(
    fl=FlConfig(num_users=100, fraction=0.02, hyper=hyper, max_rounds=100),
    source=BlobSource(num_classes=5, samples_per_class=1200,
                      test_samples_per_class=200, input_dim=16, spread=0.12),
    partition_scheme="sharded", repeats=5, master_seed=0)
budgets = [10.0, 20.0, 40.0, 80.0]
best = {}
for scheme in ("min_sum_dist", "random"):
    result = run_scenario(replace(learning, placement_scheme=scheme,
                                  energy_budget=max(budgets)))
    best[scheme] = [result.mean_best_accuracy_within(b) for b in budgets]
    print(f"{scheme:>12} best accuracy by budget: "
          + " ".join(f"{a:.3f}" for a in best[scheme]))
write_series_csv(out / "deployment_accuracy.csv", "budget_j", budgets,
                 [(f"{s}_best_acc", best[s]) for s in best])
svg_line_chart(out / "deployment_accuracy.svg",
               [(s, budgets, best[s]) for s in best],
               "Best accuracy vs energy budget", "energy budget (J)",
               "best test accuracy")
print("wrote out/deployment_energy.svg and out/deployment_accuracy.svg")
