import hashlib
import math

import numpy as np
import pytest

from agifl import placement
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


def seeded_geometry(seed, num_users, vertical):
    """Uniform users over a 1 km square; `vertical` is a scalar offset,
    "two" (each user at 0 m or 100 m below the server, as in the mixed
    form) or "uniform" (0-200 m per user)."""
    gen = np.random.default_rng(seed)
    users = gen.uniform(0.0, 1000.0, size=(num_users, 2))
    if vertical == "two":
        vertical = np.where(gen.random(num_users) < 0.5, 0.0, 100.0)
    elif vertical == "uniform":
        vertical = gen.uniform(0.0, 200.0, size=num_users)
    return users, vertical


class TestSolverPinned:
    """The solver's iterates, to the last bit, over seeded geometries."""

    # (seed, users, vertical) -> sha256 of the placement and the whole
    # SolverTrace, recorded from the solver that evaluated every distance
    # twice per iterate; the three 100- and 1000-user geometries take one
    # backtracking fallback each
    PINNED = {
        (0, 3, 100.0): "b7c0917e36214b6fd5c14998fd3ec6692d2f0003593f13718e9f1bef7f3ef1e3",
        (1, 100, 100.0): "e1e79479c3e87aae860438b4bc12802164ded4717fe1c91f5ef0fb5e0883fcfc",
        (2, 100, 0.0): "ffac777c94daeeb46abe6f70660d716d6e7249c3ab6e08034dc026d321f5bf4b",
        (3, 1000, "two"): "e0117902694d2df1ca428cedb45cbfc36c42a4710bba5be3992803463cf9e434",
        (4, 20, "uniform"): "dd9c3a080e58c4614d102b8dc6f6fa28996a897ac6a23ba3dbfaa156f197cffa",
        (5, 30_000, 90.0): "29d6907fba5738caec03308d03b95e9ce63b6b6df8318c9c378c91e1895ff62e",
        (6, 30_000, "two"): "8e8ada49b769843d3f45a73392d6b68188ab0715dfdbe24ee99944eec7a210b7",
    }

    @pytest.mark.parametrize("geometry", sorted(PINNED, key=repr), ids=repr)
    def test_placement_and_trace_match_pinned_hash(self, geometry):
        trace = SolverTrace()
        p = min_sum_dist(*seeded_geometry(*geometry), trace=trace)
        record = [float(p.x).hex(), float(p.y).hex(),
                  [float(v).hex() for v in trace.objective_history],
                  trace.iterations, trace.converged, trace.fallback_steps]
        assert hashlib.sha256(repr(record).encode()).hexdigest() == self.PINNED[geometry]

    @pytest.mark.parametrize("geometry", [(0, 3, 100.0), (4, 20, "uniform"),
                                          (5, 30_000, 90.0)], ids=repr)
    def test_one_distance_pass_per_iterate(self, geometry, monkeypatch):
        # the distances at an iterate give its objective and the next
        # step's weights, so only a fallback costs another pass
        calls = []
        distances = placement._distances

        def counted(*args):
            calls.append(None)
            return distances(*args)

        monkeypatch.setattr(placement, "_distances", counted)
        trace = SolverTrace()
        min_sum_dist(*seeded_geometry(*geometry), trace=trace)
        assert trace.fallback_steps == 0 and trace.iterations > 5
        assert len(calls) <= trace.iterations + 1


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
