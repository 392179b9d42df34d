"""Compare hovering-placement strategies on one random deployment.

Solves the minimum-sum-distance problem with the fixed-point solver,
cross-checks it against the exhaustive grid oracle, and contrasts both
with random placements. Writes the solver's descent curve to
out/placement_descent.svg.
"""

from pathlib import Path

import numpy as np

from agifl import Area, SolverTrace, min_sum_dist, objective, random_placement
from agifl.oracles import grid_placement
from agifl.reports import svg_line_chart

rng = np.random.default_rng(7)
users = rng.uniform(0, 1000, size=(15, 2))
altitude = 100.0

trace = SolverTrace()
best = min_sum_dist(users, altitude, trace=trace)
best_obj = objective(users, altitude, best.x, best.y)
print(f"fixed-point solver: ({best.x:.2f}, {best.y:.2f}) "
      f"objective {best_obj:.3f} m in {trace.iterations} iterations")

gx, gy, gobj = grid_placement(users, altitude)
print(f"grid oracle (1 m + 0.01 m refine): ({gx:.2f}, {gy:.2f}) "
      f"objective {gobj:.3f} m")
print(f"solver - oracle gap: {best_obj - gobj:+.6f} m")

print("\nrandom placements for comparison:")
for seed in range(5):
    p = random_placement(Area(), np.random.default_rng(seed))
    obj = objective(users, altitude, p.x, p.y)
    print(f"  seed {seed}: ({p.x:7.1f}, {p.y:7.1f}) objective {obj:9.1f} m "
          f"(+{obj - best_obj:7.1f})")

out = Path("out")
out.mkdir(exist_ok=True)
svg_line_chart(out / "placement_descent.svg",
               [("objective", list(range(len(trace.objective_history))),
                 trace.objective_history)],
               "Solver descent", "iteration", "summed slant distance (m)")
print("\nwrote out/placement_descent.svg")
