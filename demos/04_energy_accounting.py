"""Inspect the timing and energy breakdown of single rounds.

Runs one seeded repeat in timing-only mode at the reference scale (100
users, 2 selected per round, 251200-bit payload) and prints where every
joule of the hovering server's budget goes.
"""

from agifl import FlConfig, Scenario, ShapeSource, run_scenario

scenario = Scenario(
    fl=FlConfig(num_users=100, fraction=0.02, max_rounds=8),
    source=ShapeSource(num_samples=60_000, input_dim=784, num_classes=10),
    partition_scheme="sharded",
    train=False,
    repeats=1,
    master_seed=4,
)

rep = run_scenario(scenario).repeats[0]
p = rep.placement
print(f"hover point: ({p.x:.1f}, {p.y:.1f}) at {scenario.uav.altitude:.0f} m\n")
print(f"{'round':>5} {'selected':>12} {'duration s':>11} {'hover J':>9} "
      f"{'tx J':>9} {'cumulative J':>13}")
m = rep.metrics
hover = scenario.uav.propulsion_power * m.duration  # each round's hover joules
rows = zip(m.selected, m.duration, hover, m.uav_energy - hover, m.cum_uav_energy)
for rnd, (selected, duration, hover_j, tx_j, cum) in enumerate(rows, 1):
    chosen = ",".join(map(str, selected.tolist()))
    print(f"{rnd:>5} {chosen:>12} {duration:>11.4f} {hover_j:>9.3f} {tx_j:>9.6f} {cum:>13.3f}")

total = rep.ledger.total("uav")
print(f"\nhovering accounts for {sum(hover.tolist()) / total:.2%} of the server's "
      f"{total:.1f} J: round length is the lever that matters.")
