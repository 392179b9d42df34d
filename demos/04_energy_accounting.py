"""Inspect the timing and energy breakdown of single rounds.

Runs one seeded repeat in timing-only mode at the reference scale (100
users, 2 selected per round, 251200-bit payload) and prints where every
joule of the hovering server's budget goes.
"""

from agifl import FlConfig, Scenario, ShapeSource
from agifl.scenario import run_repeat

scenario = Scenario(
    fl=FlConfig(num_users=100, fraction=0.02, max_rounds=8),
    source=ShapeSource(num_samples=60_000, input_dim=784, num_classes=10),
    partition_scheme="sharded",
    train=False,
    repeats=1,
    master_seed=4,
)

rep = run_repeat(scenario, 0)
p = rep.placement
print(f"hover point: ({p.x:.1f}, {p.y:.1f}) at {scenario.uav.altitude:.0f} m\n")
print(f"{'round':>5} {'selected':>12} {'duration s':>11} {'hover J':>9} "
      f"{'tx J':>9} {'cumulative J':>13}")
power = scenario.uav.propulsion_power
for metrics in rep.metrics:
    chosen = ",".join(str(u) for u in metrics.selected)
    hover = power * metrics.duration
    print(f"{metrics.round:>5} {chosen:>12} {metrics.duration:>11.4f} "
          f"{hover:>9.3f} {metrics.uav_energy - hover:>9.6f} "
          f"{metrics.cum_uav_energy:>13.3f}")

total = rep.ledger.total("uav")
hover = sum(power * m.duration for m in rep.metrics)
print(f"\nhovering accounts for {hover / total:.2%} of the server's "
      f"{total:.1f} J: round length is the lever that matters.")
