import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agifl.models import (Hyperparams, ModelSpec, evaluate, init_model, param_count,
                          train_cohort)
from agifl.oracles import local_train, loss_and_grad


def finite_diff_grad(params, spec, x, y, h=1e-6):
    """Central-difference gradient of the batch loss, the reference the
    analytic gradient is checked against."""
    grad = np.empty_like(params)
    for i in range(params.size):
        plus = params.copy()
        plus[i] += h
        minus = params.copy()
        minus[i] -= h
        grad[i] = (loss_and_grad(plus, spec, x, y)[0]
                   - loss_and_grad(minus, spec, x, y)[0]) / (2 * h)
    return grad


def train_one(params, x, y, spec, hyper, rng_seed):
    """One client's local SGD: a one-lane `train_cohort` call."""
    return train_cohort(params[None], x, y, [np.arange(x.shape[0])], spec, hyper,
                        [rng_seed])[0]


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestHyperparams:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -0.1])
    def test_learning_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            Hyperparams(learning_rate=rate)


class TestInit:
    def test_logistic_zero_init(self):
        spec = ModelSpec("logistic", input_dim=784, num_classes=10)
        params = init_model(spec)
        assert params.shape == ((784 + 1) * 10,)
        assert np.all(params == 0.0)

    def test_mlp_param_count(self):
        # (4+1)*3 + (3+1)*2 = 23
        spec = ModelSpec("mlp", input_dim=4, num_classes=2, hidden_dim=3)
        assert param_count(spec) == 23
        assert init_model(spec).shape == (23,)

    def test_init_deterministic(self):
        spec = ModelSpec("mlp", input_dim=6, num_classes=3, hidden_dim=5, init_seed=42)
        assert np.array_equal(init_model(spec), init_model(spec))

    def test_mlp_init_scale(self):
        spec = ModelSpec("mlp", input_dim=100, num_classes=4, hidden_dim=50, init_seed=1)
        params = init_model(spec)
        assert np.abs(params).max() <= 1.0 / math.sqrt(50)
        assert np.abs(params).max() > 0

    @pytest.mark.parametrize("kwargs", [
        dict(kind="cnn", input_dim=4, num_classes=2),
        dict(kind="logistic", input_dim=0, num_classes=2),
        dict(kind="logistic", input_dim=4, num_classes=1),
        dict(kind="mlp", input_dim=4, num_classes=2, hidden_dim=0),
    ])
    def test_invalid_spec(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)


class TestLocalTrain:
    """One client's local SGD, as a one-lane `train_cohort` call."""

    def test_zero_epochs_is_identity(self):
        spec = ModelSpec("logistic", input_dim=3, num_classes=2)
        params = np.linspace(-1, 1, param_count(spec))
        x = np.random.default_rng(0).random((5, 3))
        y = np.array([0, 1, 0, 1, 1])
        out = train_one(params, x, y, spec,
                        Hyperparams(local_epochs=0), rng_seed=0)
        assert np.array_equal(out, params)

    def test_single_sample_step_matches_hand_gradient(self):
        # one sample, batch 1, one epoch: w' = w - lr * outer(x_ext, p - onehot)
        spec = ModelSpec("logistic", input_dim=3, num_classes=3)
        rng = np.random.default_rng(7)
        params = rng.normal(size=param_count(spec))
        x = rng.random((1, 3))
        y = np.array([2])

        w = params.reshape(4, 3)
        x_ext = np.append(x[0], 1.0)
        probs = softmax_rows((x_ext @ w)[None, :])[0]
        probs[2] -= 1.0
        expected = params - 0.01 * np.outer(x_ext, probs).ravel()

        out = train_one(params, x, y, spec,
                        Hyperparams(learning_rate=0.01, local_epochs=1,
                                    batch_size=1), rng_seed=3)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-15)

    def test_deterministic_and_pure(self):
        spec = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=5, init_seed=0)
        params = init_model(spec)
        before = params.copy()
        rng = np.random.default_rng(1)
        x = rng.random((17, 4))
        y = rng.integers(0, 3, size=17)
        hyper = Hyperparams(local_epochs=3, batch_size=5)
        a = train_one(params, x, y, spec, hyper, rng_seed=99)
        b = train_one(params, x, y, spec, hyper, rng_seed=99)
        assert np.array_equal(a, b)
        assert np.array_equal(params, before)

    def test_empty_shard_rejected(self):
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        with pytest.raises(ValueError):
            train_one(init_model(spec), np.empty((0, 2)), np.empty(0, dtype=int),
                      spec, Hyperparams(), rng_seed=0)

    def test_dimension_mismatch_rejected(self):
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        with pytest.raises(ValueError):
            train_one(np.zeros(5), np.ones((3, 2)), np.array([0, 1, 0]),
                      spec, Hyperparams(), rng_seed=0)


class TestTrainCohort:
    """Each lane of `train_cohort` is an `oracles.local_train` call, bit for
    bit, from a start row shared by every lane or from its own."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["logistic", "mlp"]), input_dim=st.integers(1, 9),
           num_classes=st.integers(2, 6), hidden_dim=st.integers(1, 7),
           sizes=st.lists(st.integers(1, 30), min_size=1, max_size=8),
           local_epochs=st.integers(0, 3), batch_size=st.integers(1, 12),
           learning_rate=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1),
           start_rows=st.booleans())
    def test_lanes_equal_local_train(self, kind, input_dim, num_classes, hidden_dim,
                                     sizes, local_epochs, batch_size, learning_rate,
                                     seed, start_rows):
        spec = ModelSpec(kind, input_dim=input_dim, num_classes=num_classes,
                         hidden_dim=hidden_dim if kind == "mlp" else 0, init_seed=seed)
        hyper = Hyperparams(learning_rate=learning_rate, local_epochs=local_epochs,
                            batch_size=batch_size)
        gen = np.random.default_rng(seed)
        n = 60
        x = gen.random((n, input_dim))
        y = gen.integers(0, num_classes, size=n)
        shape = (len(sizes) if start_rows else 1, param_count(spec))
        params = init_model(spec) + gen.normal(scale=0.3, size=shape)
        if not start_rows:
            params = np.repeat(params, len(sizes), axis=0)
        lanes = [gen.choice(n, size=size, replace=False) for size in sizes]
        seeds = [int(s) for s in gen.integers(0, 2**63, size=len(lanes))]
        before = params.copy()

        out = train_cohort(params, x, y, lanes, spec, hyper, seeds)
        expected = np.stack([local_train(start, x[lane], y[lane], spec, hyper, s)
                             for start, lane, s in zip(params, lanes, seeds)])
        assert np.array_equal(out, expected)
        assert np.array_equal(params, before)

    def test_empty_lane_rejected(self):
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        x, y = np.ones((4, 2)), np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="empty"):
            train_cohort(np.stack([init_model(spec)] * 2), x, y,
                         [np.arange(3), np.arange(0)], spec, Hyperparams(), seeds=[0, 1])

    def test_one_start_row_per_lane(self):
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        x, y = np.ones((4, 2)), np.array([0, 1, 0, 1])
        # three rows for two lanes, and one vector with no lane axis
        for start in (np.stack([init_model(spec)] * 3), init_model(spec)):
            with pytest.raises(ValueError, match="one start row per lane"):
                train_cohort(start, x, y, [np.arange(3), np.arange(2)], spec,
                             Hyperparams(), seeds=[0, 1])


class TestParameterCheck:
    """Each model entry point rejects a parameter vector of the wrong length."""

    @pytest.mark.parametrize("call", [
        lambda spec, w, x, y: loss_and_grad(w, spec, x, y),
        lambda spec, w, x, y: evaluate(w, spec, x, y),
        lambda spec, w, x, y: train_cohort(w[None], x, y, [np.arange(3)], spec,
                                           Hyperparams(), seeds=[0]),
        lambda spec, w, x, y: train_cohort(np.stack([w, w]), x, y,
                                           [np.arange(3), np.arange(2)], spec,
                                           Hyperparams(), seeds=[0, 1]),
    ], ids=["loss_and_grad", "evaluate", "train_cohort", "train_cohort_rows"])
    def test_wrong_length_rejected(self, call):
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        with pytest.raises(ValueError, match="parameter vector has length"):
            call(spec, np.zeros(5), np.ones((3, 2)), np.array([0, 1, 0]))


class TestEvaluate:
    def test_separable_blob_with_built_separator(self):
        # points on either side of x0 = 0.5; weights chosen by hand
        x = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([0, 0, 1, 1])
        spec = ModelSpec("logistic", input_dim=1, num_classes=2)
        w = np.zeros((2, 2))
        w[0, 1] = 10.0  # class-1 logit grows with the feature
        w[1, 1] = -5.0  # threshold at 0.5
        _, acc = evaluate(w.ravel(), spec, x, y)
        assert acc == 1.0

    def test_uniform_model_loss_is_log_k(self):
        spec = ModelSpec("logistic", input_dim=5, num_classes=10)
        x = np.random.default_rng(2).random((20, 5))
        y = np.random.default_rng(3).integers(0, 10, size=20)
        loss, _ = evaluate(init_model(spec), spec, x, y)
        assert abs(loss - math.log(10)) < 1e-12

    def test_single_correct_sample(self):
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        w = np.zeros((3, 2))
        w[0, 1] = 5.0
        _, acc = evaluate(w.ravel(), spec, np.array([[1.0, 0.0]]), np.array([1]))
        assert acc == 1.0

    def test_empty_dataset_rejected(self):
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        with pytest.raises(ValueError):
            evaluate(init_model(spec), spec, np.empty((0, 2)), np.empty(0, dtype=int))


class TestGradients:
    @pytest.mark.parametrize("spec", [
        ModelSpec("logistic", input_dim=4, num_classes=3),
        ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=5, init_seed=11),
    ])
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(5)
        params = rng.normal(scale=0.5, size=param_count(spec))
        x = rng.random((8, 4))
        y = rng.integers(0, 3, size=8)
        _, grad = loss_and_grad(params, spec, x, y)
        fd = finite_diff_grad(params, spec, x, y)
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)

    @pytest.mark.parametrize("kind,hidden", [("logistic", 0), ("mlp", 6)])
    def test_small_lr_full_batch_descends(self, kind, hidden):
        spec = ModelSpec(kind, input_dim=3, num_classes=4, hidden_dim=hidden,
                         init_seed=2)
        rng = np.random.default_rng(8)
        params = rng.normal(scale=0.5, size=param_count(spec))
        x = rng.random((30, 3))
        y = rng.integers(0, 4, size=30)
        loss0, _ = loss_and_grad(params, spec, x, y)
        stepped = train_one(params, x, y, spec,
                            Hyperparams(learning_rate=1e-4, local_epochs=1,
                                        batch_size=30), rng_seed=0)
        loss1, _ = loss_and_grad(stepped, spec, x, y)
        assert loss1 <= loss0
