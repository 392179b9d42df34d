"""Hovering-location optimization for the parameter server.

Min_SumDist places the server at the point minimizing the summed slant
distance to all users, sum_u sqrt((X-x_u)^2 + (Y-y_u)^2 + H^2). With H > 0
the objective is smooth and strictly convex, so a Weiszfeld-style fixed
point iteration converges from the centroid; a backtracking gradient step
replaces an iterate whose objective rises, which rounding makes common at
convergence (see `min_sum_dist`). The Random baseline draws a location
uniformly over the deployment area.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Area",
    "Placement",
    "SolverTrace",
    "objective",
    "objective_grad",
    "min_sum_dist",
    "random_placement",
]

# floor on per-user distances; only reachable when H = 0 and the iterate
# lands exactly on a user
_DIST_FLOOR = 1e-12


@dataclass(frozen=True)
class Area:
    """Rectangular deployment region with origin at (0, 0)."""

    width: float = 1000.0
    height: float = 1000.0

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("area dimensions must be positive")


@dataclass(frozen=True)
class Placement:
    """The server's hovering point; its altitude is `Topology.server_alt`."""

    x: float
    y: float


@dataclass
class SolverTrace:
    """Objective value per iteration plus convergence bookkeeping."""

    objective_history: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = True
    fallback_steps: int = 0


def _distances(users: np.ndarray, vertical: np.ndarray | float, x: float, y: float) -> np.ndarray:
    dx = x - users[:, 0]
    dy = y - users[:, 1]
    return np.sqrt(dx * dx + dy * dy + np.square(vertical))


def objective(users, vertical, x: float, y: float) -> float:
    """Sum of slant distances from (x, y) to every user.

    `vertical` is the vertical offset of the server above the users, either
    a scalar or one value per user.
    """
    users = np.asarray(users, dtype=float)
    if users.ndim != 2 or users.shape[0] == 0 or users.shape[1] != 2:
        raise ValueError("users must be a non-empty (n, 2) array")
    return float(_distances(users, np.asarray(vertical, dtype=float), x, y).sum())


def objective_grad(users, vertical, x: float, y: float) -> np.ndarray:
    """Gradient of `objective` with respect to (x, y)."""
    users = np.asarray(users, dtype=float)
    d = np.maximum(_distances(users, np.asarray(vertical, dtype=float), x, y), _DIST_FLOOR)
    gx = ((x - users[:, 0]) / d).sum()
    gy = ((y - users[:, 1]) / d).sum()
    return np.array([gx, gy])


def min_sum_dist(users, vertical, tol: float = 1e-6,
                 max_iter: int = 10_000, trace: SolverTrace | None = None) -> Placement:
    """Solve the minimum-sum-distance placement at fixed flying height;
    `vertical` is as in `objective`.

    Iterates the fixed point (x, y) <- sum(u_i / d_i) / sum(1 / d_i) starting
    from the user centroid until successive iterates move less than `tol`
    meters. Each step minimizes a quadratic majorizer of the objective, so
    in exact arithmetic the objective never increases. At convergence
    rounding often raises it in the last bit (15 of 20 uniform 100-user
    geometries at H = 100 m, final objective unchanged); such an iterate is
    replaced by a backtracking step along the negative gradient and counted
    in `trace.fallback_steps`.
    """
    users = np.asarray(users, dtype=float)
    if users.ndim != 2 or users.shape[0] == 0 or users.shape[1] != 2:
        raise ValueError("users must be a non-empty (n, 2) array")
    if tol <= 0:
        raise ValueError("tol must be positive")
    vertical = np.asarray(vertical, dtype=float)

    x, y = users.mean(axis=0)
    obj = objective(users, vertical, x, y)
    if trace is not None:
        trace.objective_history.append(obj)

    for it in range(max_iter):
        d = np.maximum(_distances(users, vertical, x, y), _DIST_FLOOR)
        inv = 1.0 / d
        denom = inv.sum()
        nx = float((users[:, 0] * inv).sum() / denom)
        ny = float((users[:, 1] * inv).sum() / denom)
        new_obj = objective(users, vertical, nx, ny)

        if new_obj > obj:
            nx, ny, new_obj = _backtracking_step(users, vertical, x, y, obj)
            if trace is not None:
                trace.fallback_steps += 1

        step = float(np.hypot(nx - x, ny - y))
        x, y, obj = nx, ny, new_obj
        if trace is not None:
            trace.objective_history.append(obj)
            trace.iterations = it + 1
        if step < tol:
            break
    else:
        if trace is not None:
            trace.converged = False

    return Placement(x=x, y=y)


def _backtracking_step(users, vertical, x, y, obj):
    g = objective_grad(users, vertical, x, y)
    step = 1.0
    for _ in range(60):
        nx, ny = x - step * g[0], y - step * g[1]
        new_obj = objective(users, vertical, nx, ny)
        if new_obj <= obj:
            return nx, ny, new_obj
        step *= 0.5
    return x, y, obj


def random_placement(area: Area, generator: np.random.Generator) -> Placement:
    """Uniform hovering location over the deployment area."""
    x = float(generator.uniform(0.0, area.width))
    y = float(generator.uniform(0.0, area.height))
    return Placement(x=x, y=y)
