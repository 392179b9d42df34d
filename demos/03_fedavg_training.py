"""Federated training on synthetic blobs, IID versus label-sharded.

Runs the same federation twice, differing only in how the corpus is dealt
to users, and charts the test accuracy per round. The label-sharded split
gives every user two classes only, which slows and roughens convergence.
Writes the chart to out/fedavg_accuracy.svg.
"""

from dataclasses import replace
from pathlib import Path

from agifl import BlobSource, FlConfig, Hyperparams, Scenario, run_scenario
from agifl.reports import svg_line_chart

base = Scenario(
    fl=FlConfig(num_users=50, fraction=0.1,
                hyper=Hyperparams(learning_rate=0.01, local_epochs=5,
                                  batch_size=10),
                max_rounds=60),
    source=BlobSource(num_classes=5, samples_per_class=400,
                      test_samples_per_class=100, input_dim=16, spread=0.15),
    partition_scheme="iid",
    repeats=3,
    master_seed=11,
)

curves = []
for label, scenario in [("iid", base),
                        ("sharded(2)", replace(base, partition_scheme="sharded"))]:
    result = run_scenario(scenario)
    accs = result.mean_test_acc
    curves.append((label, list(range(1, len(accs) + 1)), list(accs)))
    print(f"{label:>10}: final mean accuracy {accs[-1]:.4f} "
          f"(best {result.mean_best_accuracy:.4f})")

out = Path("out")
out.mkdir(exist_ok=True)
svg_line_chart(out / "fedavg_accuracy.svg", curves,
               "Test accuracy by partition scheme", "round", "accuracy")
print("wrote out/fedavg_accuracy.svg")
