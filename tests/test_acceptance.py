"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with its
runtime (run pytest with -s to see them). Expected values come from
independent oracles: direct formula evaluation, exhaustive grid search,
hand arithmetic, finite differences, or the centralized training baseline.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from agifl.cli import main
from agifl.data import partition, synth_blobs
from agifl.fedavg import FlConfig, aggregate, run_round
from agifl.models import Hyperparams, ModelSpec, evaluate, init_model, param_count
from agifl.oracles import (grid_placement, local_train, loss_and_grad, rate_direct,
                           weighted_mean_direct)
from agifl.placement import SolverTrace, min_sum_dist, objective, objective_grad
from agifl.scenario import (IDX_FILES, BlobSource, IdxSource, Scenario, ShapeSource,
                            load_source, run_scenario)
from agifl.seeding import child_seed

PAPER_HYPER = Hyperparams(learning_rate=0.01, local_epochs=5, batch_size=10)


def report(number, label, failures, started, limit=None):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.1f}s)")
    assert not failures, f"criterion {number}: " + "; ".join(failures)
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"


def test_criterion_1_link_rate_oracle():
    started = time.perf_counter()
    failures = []
    cases = [
        # (bandwidth, tx_power, altitude, horizontal, closed form)
        (5e5, 0.1, 100.0, 0.0, 5e5 * math.log2(101)),
        (5e5, 0.1, 100.0, 100.0, 5e5 * math.log2(51)),
        (1e6, 0.01, 100.0, 0.0, 1e6 * math.log2(11)),
    ]
    from agifl.channel import ChannelParams, link_rates
    params = ChannelParams()
    for bw, power, alt, horiz, expected in cases:
        got = float(link_rates(bw, power, np.array([alt ** 2 + horiz ** 2]), params)[0])
        direct = rate_direct(bw, power, alt, horiz)
        if abs(got - expected) > 1e-9 * expected:
            failures.append(f"link_rates({bw}, {power}, {alt}, {horiz}) = {got}, "
                            f"expected {expected}")
        if abs(direct - expected) > 1e-9 * expected:
            failures.append("oracle drifted from the closed form")
        if got != rate_direct(bw, power, alt, horiz, params.ref_gain, params.noise):
            failures.append(f"link_rates({bw}, {power}, {alt}, {horiz}) differs from "
                            f"rate_direct at the same constants")
    report(1, "link rate matches hand-derived values", failures, started, limit=1.0)


def test_criterion_2_placement_optimality():
    started = time.perf_counter()
    failures = []
    gen = np.random.default_rng(2024)
    for i in range(100):
        users = gen.uniform(0.0, 1000.0, size=(int(gen.integers(1, 21)), 2))
        trace = SolverTrace()
        placement = min_sum_dist(users, 100.0, trace=trace)
        solver_obj = objective(users, 100.0, placement.x, placement.y)
        _, _, oracle_obj = grid_placement(users, 100.0, 1.0, 0.01)
        if solver_obj > oracle_obj + 0.1:
            failures.append(f"instance {i}: solver {solver_obj:.4f} vs "
                            f"grid {oracle_obj:.4f}")
        hist = trace.objective_history
        if any(b > a for a, b in zip(hist, hist[1:])):
            failures.append(f"instance {i}: objective increased during solve")
    report(2, "solver <= grid oracle + 0.1 m on 100 instances", failures,
           started, limit=30.0)


def test_criterion_3_energy_comparison_over_rounds():
    started = time.perf_counter()
    failures = []
    base = Scenario(
        fl=FlConfig(num_users=100, fraction=0.02, hyper=PAPER_HYPER,
                    max_rounds=100),
        source=ShapeSource(num_samples=60_000, input_dim=784, num_classes=10),
        partition_scheme="sharded", shards_per_user=2,
        train=False, repeats=20, master_seed=0)
    # the stand-in model must carry the 7850 x 32 = 251200 bit payload
    payload = param_count(ModelSpec("logistic", 784, 10)) * 32
    if payload != 251_200:
        failures.append(f"payload {payload} != 251200 bits")

    opt = run_scenario(base)
    rand = run_scenario(replace(base, placement_scheme="random"))
    mo, mr = opt.mean("cum_uav_energy"), rand.mean("cum_uav_energy")
    if len(mo) != 100 or len(mr) != 100:
        failures.append("runs did not complete 100 rounds")
    if not np.all(mo < mr):
        worst = int(np.argmin(mr - mo))
        failures.append(f"optimized mean energy not below random at round {worst + 1}")
    gap_10, gap_100 = mr[9] - mo[9], mr[99] - mo[99]
    if not gap_100 > gap_10:
        failures.append(f"gap did not grow: {gap_10:.2f} J at 10, "
                        f"{gap_100:.2f} J at 100")
    report(3, "optimized placement saves energy at every round, gap grows",
           failures, started, limit=120.0)


def test_criterion_4_accuracy_vs_budget():
    started = time.perf_counter()
    failures = []
    base = Scenario(
        fl=FlConfig(num_users=100, fraction=0.02, hyper=PAPER_HYPER,
                    max_rounds=100),
        source=BlobSource(num_classes=5, samples_per_class=1200,
                          test_samples_per_class=200, input_dim=16, spread=0.12),
        partition_scheme="sharded", shards_per_user=2,
        repeats=5, master_seed=0)
    budgets = [10.0, 20.0, 40.0, 80.0]
    best = {}
    for scheme in ("min_sum_dist", "random"):
        best[scheme] = [
            run_scenario(replace(base, placement_scheme=scheme,
                                 energy_budget=budget)).mean_best_accuracy_within(math.inf)
            for budget in budgets
        ]
    for scheme, accs in best.items():
        if not all(b >= a for a, b in zip(accs, accs[1:])):
            failures.append(f"{scheme}: best accuracy not non-decreasing "
                            f"in budget: {accs}")
    for budget, ms, rd in zip(budgets, best["min_sum_dist"], best["random"]):
        if ms < rd - 0.005:
            failures.append(f"budget {budget} J: min_sum_dist {ms:.4f} below "
                            f"random {rd:.4f} - 0.005")
    report(4, "best accuracy grows with budget, optimized >= random", failures,
           started, limit=600.0)


def test_criterion_5_fedavg_correctness():
    started = time.perf_counter()
    failures = []

    # (a) one-client federation reduces to sequential SGD
    data = synth_blobs(3, 40, 4, spread=0.1, seed=0)
    spec = ModelSpec("logistic", input_dim=4, num_classes=3)
    config = FlConfig(num_users=1, fraction=1.0,
                      hyper=Hyperparams(local_epochs=2, batch_size=8),
                      max_rounds=5)
    shards = partition(data, 1, scheme="iid", seed=0)
    params = init_model(spec)[None]
    for rnd in range(5):
        params = run_round(params, config, [shards], spec, data, [[0]], [321], rnd)
    w = init_model(spec)
    indices, offsets = shards
    idx = indices[offsets[0]:offsets[1]]
    for rnd in range(5):
        w = local_train(w, data.features[idx], data.labels[idx], spec,
                        config.hyper, child_seed(321, rnd, 0, "train"))
    if np.abs(params[0] - w).max() > 1e-12:
        failures.append("one-client FedAvg deviates from sequential SGD")

    # (b) weighted means against the hand rule
    for updates, expected in [
        ([(np.array([0.0]), 1), (np.array([4.0]), 3)], [3.0]),
        ([(np.array([2.0, -2.0]), 5), (np.array([2.0, -2.0]), 7)], [2.0, -2.0]),
        ([(np.array([1.0, 0.0]), 1)], [1.0, 0.0]),
    ]:
        if list(aggregate(np.stack([v for v, _ in updates]),
                          [n for _, n in updates])) != expected:
            failures.append(f"hand aggregate mismatch for {updates}")
    gen = np.random.default_rng(55)
    for _ in range(100):
        k = int(gen.integers(1, 9))
        updates = [(gen.normal(size=5), int(gen.integers(1, 200)))
                   for _ in range(k)]
        ours = aggregate(np.stack([v for v, _ in updates]), [n for _, n in updates])
        ref = np.array(weighted_mean_direct([(list(v), n) for v, n in updates]))
        if not np.allclose(ours, ref, rtol=1e-13, atol=0):
            failures.append("aggregate drifted from independent recomputation")
            break

    # (c) convex-hull containment
    for _ in range(1000):
        k = int(gen.integers(2, 7))
        updates = [(gen.normal(size=3), int(gen.integers(1, 50)))
                   for _ in range(k)]
        stacked = np.stack([v for v, _ in updates])
        out = aggregate(stacked, [n for _, n in updates])
        if np.any(out < stacked.min(axis=0)) or np.any(out > stacked.max(axis=0)):
            failures.append("aggregate escaped the coordinate-wise hull")
            break
    report(5, "FedAvg equivalence, hand aggregation, hull containment",
           failures, started)


def _learning_corpus():
    """MNIST when pointed at by AGIFL_MNIST_DIR, else blobs at MNIST scale."""
    mnist_dir = os.environ.get("AGIFL_MNIST_DIR", "")
    if mnist_dir and all(os.path.exists(os.path.join(mnist_dir, n)) for n in IDX_FILES):
        return IdxSource(mnist_dir), "mnist"
    return BlobSource(num_classes=10, samples_per_class=6000,
                      test_samples_per_class=1000, input_dim=64,
                      spread=0.25), "blobs-60k"


def test_criterion_6_learning_sanity():
    started = time.perf_counter()
    failures = []
    source, corpus = _learning_corpus()
    rounds = 100
    base = Scenario(
        fl=FlConfig(num_users=100, fraction=0.02, hyper=PAPER_HYPER,
                    max_rounds=rounds),
        source=source, partition_scheme="sharded", shards_per_user=2,
        repeats=1, master_seed=0, eval_stride=10)

    acc_sharded = run_scenario(base).repeats[0].metrics[-1].test_acc
    acc_iid = run_scenario(replace(base, partition_scheme="iid")).repeats[0] \
        .metrics[-1].test_acc

    # centralized oracle: same total number of epochs,
    # rounds x local_epochs x cohort/users = 100 * 5 * 2/100 = 10
    train, test = load_source(source, child_seed(0, "data"))
    spec = ModelSpec("logistic", train.input_dim, 10)
    baseline_epochs = rounds * PAPER_HYPER.local_epochs * 2 // 100
    w = local_train(init_model(spec), train.features, train.labels, spec,
                    Hyperparams(learning_rate=0.01, local_epochs=baseline_epochs,
                                batch_size=10),
                    rng_seed=child_seed(0, "baseline"))
    _, acc_base = evaluate(w, spec, test.design, test.labels)

    print(f"  corpus={corpus} sharded={acc_sharded:.4f} iid={acc_iid:.4f} "
          f"centralized={acc_base:.4f}")
    if abs(acc_sharded - acc_base) > 0.05:
        failures.append(f"sharded(2) acc {acc_sharded:.4f} more than 5 points "
                        f"from baseline {acc_base:.4f}")
    if abs(acc_iid - acc_base) > 0.02:
        failures.append(f"iid acc {acc_iid:.4f} more than 2 points "
                        f"from baseline {acc_base:.4f}")
    report(6, "federated accuracy tracks the centralized baseline", failures,
           started, limit=900.0)


DETERMINISM_CONFIG = """\
[scenario]
repeats = 8
max_rounds = 4

[fl]
num_users = 10
fraction = 0.2
local_epochs = 1

[data]
source = blobs
classes = 3
samples_per_class = 40
test_samples_per_class = 10
input_dim = 8
spread = 0.1
partition = iid
"""


def test_criterion_7_cli_determinism(tmp_path):
    started = time.perf_counter()
    failures = []
    config = tmp_path / "determinism.ini"
    config.write_text(DETERMINISM_CONFIG)

    def run(tag, jobs):
        out = tmp_path / tag
        code = main(["run", str(config), "--seed", "7", "--jobs", str(jobs),
                     "--out", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        return {name: (out / name).read_bytes() for name in names}

    serial_a, serial_b = run("s1", 1), run("s2", 1)
    parallel_a, parallel_b = run("p1", 8), run("p2", 8)
    if serial_a != serial_b:
        failures.append("two --jobs 1 executions differ")
    if parallel_a != parallel_b:
        failures.append("two --jobs 8 executions differ")
    if serial_a != parallel_a:
        failures.append("--jobs 1 and --jobs 8 disagree")
    if len(serial_a) != 9:  # 8 repeats + mean
        failures.append(f"expected 9 CSV files, found {len(serial_a)}")
    report(7, "byte-identical CSVs across executions and job counts",
           failures, started)


def test_criterion_8_gradient_and_partition_suites():
    started = time.perf_counter()
    failures = []
    gen = np.random.default_rng(88)

    def fd_model(params, spec, x, y, h=1e-6):
        grad = np.empty_like(params)
        for i in range(params.size):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            grad[i] = (loss_and_grad(up, spec, x, y)[0]
                       - loss_and_grad(down, spec, x, y)[0]) / (2 * h)
        return grad

    for spec in (ModelSpec("logistic", 5, 3),
                 ModelSpec("mlp", 5, 3, hidden_dim=4)):
        for trial in range(5):
            params = gen.normal(scale=0.5, size=param_count(spec))
            x = gen.random((6, 5))
            y = gen.integers(0, 3, size=6)
            _, grad = loss_and_grad(params, spec, x, y)
            fd = fd_model(params, spec, x, y)
            if np.linalg.norm(grad - fd) > 1e-5 * np.linalg.norm(fd):
                failures.append(f"{spec.kind} gradient check failed (trial {trial})")

    for trial in range(10):
        users = gen.uniform(0, 1000, size=(int(gen.integers(1, 15)), 2))
        x, y = gen.uniform(0, 1000, size=2)
        grad = objective_grad(users, 100.0, x, y)
        h = 1e-4
        fd = np.array([
            (objective(users, 100.0, x + h, y) - objective(users, 100.0, x - h, y)) / (2 * h),
            (objective(users, 100.0, x, y + h) - objective(users, 100.0, x, y - h)) / (2 * h),
        ])
        if np.linalg.norm(grad - fd) > 1e-5 * max(np.linalg.norm(fd), 1e-9):
            failures.append(f"placement gradient check failed (trial {trial})")

    data = synth_blobs(5, 41, 3, spread=0.2, seed=1)  # 205 samples
    for seed in range(50):
        for scheme, kwargs in (("iid", {}), ("sharded", {"shards_per_user": 2})):
            indices, offsets = partition(data, 10, scheme=scheme, seed=seed, **kwargs)
            merged = np.concatenate(np.split(indices, offsets[1:-1]))
            if len(merged) != data.num_samples:
                failures.append(f"{scheme}/seed {seed}: not a covering split")
                break
            if len(np.unique(merged)) != data.num_samples:
                failures.append(f"{scheme}/seed {seed}: duplicated indices")
                break
    report(8, "finite-difference gradients and partition laws", failures, started)
