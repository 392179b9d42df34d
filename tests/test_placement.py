import math

import numpy as np
import pytest

from agifl.oracles import grid_placement
from agifl.placement import (Area, SolverTrace, min_sum_dist, objective,
                             objective_grad, random_placement)


def finite_diff_grad(users, altitude, x, y, h=1e-5):
    return np.array([
        (objective(users, altitude, x + h, y) - objective(users, altitude, x - h, y)) / (2 * h),
        (objective(users, altitude, x, y + h) - objective(users, altitude, x, y - h)) / (2 * h),
    ])


class TestObjective:
    def test_single_user_directly_below(self):
        assert objective([[0.0, 0.0]], 100.0, 0.0, 0.0) == 100.0

    def test_two_users_from_midpoint(self):
        users = [[0.0, 0.0], [200.0, 0.0]]
        expected = 2 * math.sqrt(100.0 ** 2 + 100.0 ** 2)
        assert objective(users, 100.0, 100.0, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_lower_bound_is_users_times_height(self):
        rng = np.random.default_rng(0)
        users = rng.uniform(0, 1000, size=(15, 2))
        for x, y in rng.uniform(0, 1000, size=(10, 2)):
            assert objective(users, 100.0, x, y) >= 15 * 100.0

    def test_empty_users_rejected(self):
        with pytest.raises(ValueError):
            objective(np.empty((0, 2)), 100.0, 0.0, 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        users = rng.uniform(0, 1000, size=(12, 2))
        for x, y in rng.uniform(100, 900, size=(5, 2)):
            grad = objective_grad(users, 100.0, x, y)
            fd = finite_diff_grad(users, 100.0, x, y)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


class TestMinSumDist:
    def test_single_user_optimum_is_the_user(self):
        p = min_sum_dist([[123.0, -45.0]], 100.0)
        assert (p.x, p.y) == (123.0, -45.0)

    def test_two_users_symmetric_midpoint(self):
        p = min_sum_dist([[0.0, 0.0], [200.0, 0.0]], 100.0)
        assert p.x == pytest.approx(100.0, abs=1e-9)
        assert p.y == pytest.approx(0.0, abs=1e-9)

    def test_three_users_match_grid_oracle(self):
        users = [[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]]
        p = min_sum_dist(users, 100.0)
        _, _, oracle_obj = grid_placement(users, 100.0)
        assert objective(users, 100.0, p.x, p.y) <= oracle_obj + 1.0

    def test_objective_non_increasing_per_iteration(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            users = rng.uniform(0, 1000, size=(rng.integers(1, 20), 2))
            trace = SolverTrace()
            min_sum_dist(users, 100.0, trace=trace)
            hist = trace.objective_history
            assert all(b <= a for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_beats_grid_oracle_margin(self, seed):
        rng = np.random.default_rng(seed)
        users = rng.uniform(0, 1000, size=(rng.integers(2, 21), 2))
        p = min_sum_dist(users, 100.0)
        _, _, oracle_obj = grid_placement(users, 100.0)
        assert objective(users, 100.0, p.x, p.y) <= oracle_obj + 1e-3 * len(users)

    @pytest.mark.parametrize("seed", range(6))
    def test_dominates_random_placement(self, seed):
        rng = np.random.default_rng(seed)
        users = rng.uniform(0, 1000, size=(10, 2))
        best = min_sum_dist(users, 100.0)
        rand = random_placement(Area(), np.random.default_rng(seed + 100))
        assert (objective(users, 100.0, best.x, best.y)
                <= objective(users, 100.0, rand.x, rand.y))

    def test_per_user_vertical_offsets(self):
        # mixed-altitude clients: the solver accepts one offset per user
        users = [[0.0, 0.0], [200.0, 0.0]]
        p = min_sum_dist(users, np.array([100.0, 0.0]))
        # pulled toward the user with no vertical separation
        assert p.x > 100.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            min_sum_dist(np.empty((0, 2)), 100.0)
        with pytest.raises(ValueError):
            min_sum_dist([[0.0, 0.0]], 100.0, tol=0.0)


class TestRandomPlacement:
    def test_within_bounds(self):
        area = Area(width=300.0, height=700.0)
        for seed in range(50):
            p = random_placement(area, np.random.default_rng(seed))
            assert 0.0 <= p.x <= 300.0
            assert 0.0 <= p.y <= 700.0

    @pytest.mark.parametrize("width, height", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0),
                                               (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_area_rejects_non_positive_and_nan(self, width, height):
        with pytest.raises(ValueError, match="must be positive"):
            Area(width=width, height=height)

    def test_deterministic_per_seed(self):
        a = random_placement(Area(), np.random.default_rng(5))
        b = random_placement(Area(), np.random.default_rng(5))
        assert (a.x, a.y) == (b.x, b.y)

    def test_empirical_mean_near_center(self):
        gen = np.random.default_rng(0)
        points = np.array([[p.x, p.y] for p in
                           (random_placement(Area(), gen) for _ in range(10_000))])
        assert np.allclose(points.mean(axis=0), [500.0, 500.0], rtol=0.02)
