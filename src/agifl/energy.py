"""Per-round timing and energy accounting.

A round starts with the server broadcasting the global model (one
transmission at the rate of the worst recipient), after which the selected
clients compute and upload in parallel on orthogonal sub-bands:

    t_round = t_down + max_u (t_comp_u + t_up_u)

The hovering server burns propulsion power for the whole round and
transmit power during the downlink only. Users pay transmit energy during
their upload; their compute energy (effective-capacitance model
kappa * f^2 * cycles) is tracked only when enabled, since the headline
comparison concerns the server's energy.

`EnergyLedger` holds a run's energy budget on one entity and refuses a
round that would take that entity over it, leaving every total as it was.

`scenario` builds the per-user terms as arrays once per repeat, and each
round's duration and energy from them; its arithmetic is tested against
the scalar references in `oracles`.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UavProfile",
    "EnergyLedger",
    "entity_index",
    "user_compute_energy",
]


@dataclass(frozen=True)
class UavProfile:
    """Aerial parameter server: 10 mW transmitter, 100 W rotors."""

    tx_power: float = 0.01
    propulsion_power: float = 100.0
    altitude: float = 100.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.tx_power, self.propulsion_power,
                                              self.altitude)):
            raise ValueError("UavProfile fields must be positive and finite")


def entity_index(entity: str, num_users: int) -> int | None:
    """None for "uav", the id for "user:<id>" with 0 <= id < num_users;
    anything else raises ValueError rather than reading as a zero total."""
    if entity == "uav":
        return None
    prefix, _, digits = entity.partition(":")
    if prefix == "user" and digits.isascii() and digits.isdigit() \
            and int(digits) < num_users:
        return int(digits)
    raise ValueError(f"unknown energy entity {entity!r} (expected 'uav' or "
                     f"'user:<id>' with 0 <= id < {num_users})")


class EnergyLedger:
    """Cumulative per-entity energy, updated once per counted round.

    Entities are "uav" (the server) and "user:<id>" for 0 <= id <
    num_users. `add_round` refuses a round after which `entity`'s total
    would exceed `budget` (an infinite budget refuses none), so a round
    that would overdraw the budget is never counted. One-off costs (such
    as a flat flight-to-hover-point charge) count toward the totals
    without affecting the round count.
    """

    def __init__(self, num_users: int, budget: float = math.inf, entity: str = "uav"):
        if not budget > 0:
            raise ValueError("budget must be positive")
        entity_index(entity, num_users)
        self._budget = budget
        self._entity = entity
        self._uav = 0.0
        self._users = np.zeros(num_users)

    def charge(self, entity: str, joules: float) -> None:
        if joules < 0:
            raise ValueError("charge must be non-negative")
        user = entity_index(entity, len(self._users))
        if user is None:
            self._uav += joules
        else:
            self._users[user] += joules

    def add_round(self, server: float, users: np.ndarray, user_tx: np.ndarray,
                  user_compute: np.ndarray, user_hover: np.ndarray) -> bool:
        """Count a round: `server` joules for the server and, aligned with
        the cohort `users` (distinct ids), each user's transmit, compute and
        hover joules. Returns False, with every total left as it was, when
        the round would take the budget entity over the budget."""
        uav, kept = self._uav, self._users[users]
        self._uav += server
        # float addition is not associative: tx, then compute, then hover
        # fixes each user's total to the last bit
        self._users[users] += user_tx
        self._users[users] += user_compute
        self._users[users] += user_hover
        if self.total(self._entity) > self._budget:
            self._uav = uav
            self._users[users] = kept
            return False
        return True

    def total(self, entity: str = "uav") -> float:
        user = entity_index(entity, len(self._users))
        return self._uav if user is None else float(self._users[user])


def user_compute_energy(cpu_freq: float, total_cycles: float, kappa: float) -> float:
    """Effective-capacitance compute energy: kappa * f^2 * cycles."""
    return kappa * cpu_freq ** 2 * total_cycles
