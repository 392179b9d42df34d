import numpy as np
import pytest

from agifl.data import partition, synth_blobs
from agifl.fedavg import FlConfig, aggregate, cohort_size, run_round, select_clients
from agifl.models import Hyperparams, ModelSpec, init_model, train_cohort
from agifl.oracles import local_train, weighted_mean_direct
from agifl.seeding import child_seed, rng


def split_shards(shards):
    """The per-user index arrays of a `partition` pair."""
    indices, offsets = shards
    return np.split(indices, offsets[1:-1])


class TestSelectClients:
    def test_paper_cohort_two_of_hundred(self):
        selected = select_clients(100, 0.02, rng(0, "sel"))
        assert len(selected) == 2
        assert len(set(selected.tolist())) == 2

    def test_full_participation(self):
        selected = select_clients(7, 1.0, rng(1, "sel"))
        assert np.array_equal(np.sort(selected), np.arange(7))

    def test_minimum_one_client(self):
        assert cohort_size(10, 0.05) == 1
        assert len(select_clients(10, 0.05, rng(2, "sel"))) == 1

    def test_deterministic_per_stream(self):
        a = select_clients(50, 0.1, rng(3, "sel"))
        b = select_clients(50, 0.1, rng(3, "sel"))
        assert np.array_equal(a, b)

    def test_selection_is_uniform(self):
        # frequency sanity: every user selected about m/U of the time
        users, fraction, draws = 20, 0.25, 4000
        counts = np.zeros(users)
        for i in range(draws):
            counts[select_clients(users, fraction, rng(9, i, "sel"))] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.25) < 0.03)
        expected = draws * 0.25
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 43.82  # chi-square 0.999 quantile at 19 dof


class TestAggregate:
    def test_singleton_returns_input_exactly(self):
        w = np.random.default_rng(0).normal(size=11)
        assert np.array_equal(aggregate(w[None, :], [17]), w)

    def test_equal_weights_arithmetic_mean(self):
        out = aggregate(np.array([[0.0], [4.0]]), [5, 5])
        assert out[0] == 2.0

    def test_hand_weighted_mean(self):
        out = aggregate(np.array([[0.0], [4.0]]), [1, 3])
        assert out[0] == 3.0  # (0*1 + 4*3) / 4

    def test_matches_hand_rule_oracle(self):
        gen = np.random.default_rng(4)
        updates = [(gen.normal(size=6), int(n)) for n in gen.integers(1, 50, size=5)]
        expected = weighted_mean_direct([(list(w), n) for w, n in updates])
        stacked = np.stack([w for w, _ in updates])
        np.testing.assert_allclose(aggregate(stacked, [n for _, n in updates]),
                                   expected, rtol=1e-12)

    def test_convex_hull_containment(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            k = int(gen.integers(2, 8))
            updates = [(gen.normal(size=4), int(gen.integers(1, 100)))
                       for _ in range(k)]
            stacked = np.stack([w for w, _ in updates])
            out = aggregate(stacked, [n for _, n in updates])
            assert np.all(out >= stacked.min(axis=0))
            assert np.all(out <= stacked.max(axis=0))

    def test_count_scale_invariance(self):
        gen = np.random.default_rng(6)
        stacked = gen.normal(size=(3, 5))
        counts = np.array([1, 2, 5])
        assert np.array_equal(aggregate(stacked, counts), aggregate(stacked, 7 * counts))

    def test_errors(self):
        with pytest.raises(ValueError):
            aggregate(np.zeros((0, 3)), [])
        with pytest.raises(ValueError):
            aggregate(np.zeros((2, 3)), [1])
        with pytest.raises(ValueError):
            aggregate(np.zeros((1, 3)), [0])


def make_corpus(seed=0):
    return synth_blobs(num_classes=3, samples_per_class=40, input_dim=4,
                       spread=0.1, seed=seed)


def record_counts(monkeypatch):
    """Record the sample counts each `aggregate` call inside `run_round` weights by."""
    import agifl.fedavg as fedavg

    calls = []

    def recording_aggregate(params, counts):
        calls.append(list(counts))
        return aggregate(params, counts)

    monkeypatch.setattr(fedavg, "aggregate", recording_aggregate)
    return calls


class TestRunRound:
    def test_one_client_equals_sequential_sgd(self):
        data = make_corpus()
        spec = ModelSpec("logistic", input_dim=4, num_classes=3)
        config = FlConfig(num_users=1, fraction=1.0,
                          hyper=Hyperparams(local_epochs=2, batch_size=8),
                          max_rounds=5)
        shards = partition(data, 1, scheme="iid", seed=0)
        params = init_model(spec)[None]
        for rnd in range(5):
            params = run_round(params, config, [shards], spec, data, [[0]], [123], rnd)

        w = init_model(spec)
        idx = split_shards(shards)[0]
        for rnd in range(5):
            w = local_train(w, data.features[idx], data.labels[idx], spec,
                            config.hyper, child_seed(123, rnd, 0, "train"))
        np.testing.assert_allclose(params[0], w, rtol=0, atol=1e-12)

    def test_identical_shards_and_seeds_aggregate_to_single_update(self):
        data = make_corpus()
        spec = ModelSpec("logistic", input_dim=4, num_classes=3)
        hyper = Hyperparams(local_epochs=1, batch_size=10)
        start = init_model(spec) + 0.1
        one = local_train(start, data.features, data.labels, spec, hyper, rng_seed=5)
        two = local_train(start, data.features, data.labels, spec, hyper, rng_seed=5)
        agg = aggregate(np.stack([one, two]), [data.num_samples, data.num_samples])
        assert np.array_equal(agg, one)

    def test_two_clients_match_manual_weighted_mean(self, monkeypatch):
        data = make_corpus(seed=2)
        spec = ModelSpec("logistic", input_dim=4, num_classes=3)
        config = FlConfig(num_users=2, fraction=1.0,
                          hyper=Hyperparams(local_epochs=1, batch_size=7),
                          max_rounds=1)
        shards = partition(data, 2, scheme="iid", seed=1)
        start = init_model(spec)
        selected = select_clients(2, 1.0, rng(77, 0, "select"))
        counts = record_counts(monkeypatch)
        new_params = run_round(start[None], config, [shards], spec, data, [selected],
                               [77], 0)[0]

        manual = []
        users = split_shards(shards)
        for user in selected:
            idx = users[user]
            w = local_train(start, data.features[idx],
                            data.labels[idx], spec, config.hyper,
                            child_seed(77, 0, int(user), "train"))
            manual.append((list(w), len(idx)))
        expected = weighted_mean_direct(manual)
        np.testing.assert_allclose(new_params, expected, rtol=1e-12)
        assert counts == [[len(users[u]) for u in selected]]

    def test_lockstep_repeats_equal_one_repeat_rounds(self, monkeypatch):
        import agifl.fedavg as fedavg

        data = make_corpus(seed=5)
        spec = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=5)
        config = FlConfig(num_users=7, fraction=0.5,
                          hyper=Hyperparams(local_epochs=2, batch_size=7))
        shards = [partition(data, 7, scheme="iid", seed=r) for r in range(3)]
        starts = np.stack([init_model(ModelSpec("mlp", 4, 3, 5, init_seed=r))
                           for r in range(3)])
        selected = [select_clients(7, 0.5, rng(r, 4, "select")) for r in range(3)]
        seeds = [11, 12, 13]
        alone = [run_round(starts[r:r + 1], config, shards[r:r + 1], spec, data,
                           selected[r:r + 1], seeds[r:r + 1], 4)[0] for r in range(3)]

        lanes = []

        def recording_train(params, features, labels, lanes_, spec, hyper, seeds_):
            lanes.append(len(lanes_))
            return train_cohort(params, features, labels, lanes_, spec, hyper, seeds_)

        monkeypatch.setattr(fedavg, "train_cohort", recording_train)
        counts = record_counts(monkeypatch)
        together = run_round(starts, config, shards, spec, data, selected, seeds, 4)
        assert np.array_equal(together, np.stack(alone))
        assert lanes == [3 * 4]
        assert counts == [[len(split_shards(shards[r])[u]) for u in selected[r]]
                          for r in range(3)]

    def test_round_is_deterministic(self):
        data = make_corpus(seed=3)
        spec = ModelSpec("logistic", input_dim=4, num_classes=3)
        config = FlConfig(num_users=5, fraction=0.4, max_rounds=1)
        shards = partition(data, 5, scheme="iid", seed=2)
        start = init_model(spec)
        sel_a = select_clients(5, 0.4, rng(9, 0, "select"))
        sel_b = select_clients(5, 0.4, rng(9, 0, "select"))
        a = run_round(start[None], config, [shards], spec, data, [sel_a], [9], 0)
        b = run_round(start[None], config, [shards], spec, data, [sel_b], [9], 0)
        assert np.array_equal(sel_a, sel_b)
        assert np.array_equal(a, b)

    def test_shard_count_must_match_users(self):
        data = make_corpus()
        spec = ModelSpec("logistic", input_dim=4, num_classes=3)
        config = FlConfig(num_users=3, fraction=1.0)
        shards = partition(data, 2, scheme="iid", seed=0)
        with pytest.raises(ValueError):
            run_round(init_model(spec)[None], config, [shards], spec, data, [[0, 1, 2]],
                      [0], 0)

    def test_one_vector_start_rejected(self):
        data = make_corpus()
        spec = ModelSpec("logistic", input_dim=4, num_classes=3)
        config = FlConfig(num_users=2, fraction=1.0)
        shards = partition(data, 2, scheme="iid", seed=0)
        with pytest.raises(ValueError, match=r"\(R, P\) array"):
            run_round(init_model(spec), config, [shards], spec, data, [[0, 1]], [0], 0)

    def test_trains_exactly_the_given_cohort(self, monkeypatch):
        import agifl.fedavg as fedavg

        data = make_corpus(seed=4)
        spec = ModelSpec("logistic", input_dim=4, num_classes=3)
        config = FlConfig(num_users=6, fraction=0.5, max_rounds=1)
        shards = partition(data, 6, scheme="iid", seed=3)
        trained = []

        def recording_train(params, features, labels, lanes, spec, hyper, seeds):
            trained.extend(zip(lanes, seeds))
            return train_cohort(params, features, labels, lanes, spec, hyper, seeds)

        monkeypatch.setattr(fedavg, "train_cohort", recording_train)
        cohort = np.array([1, 4, 5])  # not the cohort select_clients draws
        assert not np.array_equal(cohort, select_clients(6, 0.5, rng(9, 0, "select")))
        counts = record_counts(monkeypatch)
        run_round(init_model(spec)[None], config, [shards], spec, data, [cohort], [9], 2)
        users = split_shards(shards)
        assert [(len(lane), seed) for lane, seed in trained] == [
            (len(users[u]), child_seed(9, 2, u, "train")) for u in cohort]
        assert all(np.array_equal(lane, users[u])
                   for (lane, _), u in zip(trained, cohort))
        assert counts == [[len(users[u]) for u in cohort]]


class TestConfigValidation:
    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            FlConfig(num_users=10, fraction=0.0)
        with pytest.raises(ValueError):
            FlConfig(num_users=10, fraction=1.5)

    def test_invalid_users(self):
        with pytest.raises(ValueError):
            FlConfig(num_users=0)
