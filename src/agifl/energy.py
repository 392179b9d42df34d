"""Per-round timing and energy accounting.

A round starts with the server broadcasting the global model (one
transmission at the rate of the worst recipient), after which the selected
clients compute and upload in parallel on orthogonal sub-bands:

    t_round = t_down + max_u (t_comp_u + t_up_u)

The hovering server burns propulsion power for the whole round and
transmit power during the downlink only. Users pay transmit energy during
their upload and compute energy kappa * f^2 * cycles (effective-capacitance
model), which the default kappa = 0 leaves out, since the headline
comparison concerns the server's energy.

`EnergyLedger` holds a run's energy budget on one entity and refuses a
round that would take that entity over it, leaving every total as it was.
The server's total starts at its flight energy to the hover point.

`scenario` builds the per-user terms as arrays once per repeat, and the
durations and energies of a block of rounds from them; its arithmetic is
tested against the scalar references in `oracles`.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UavProfile",
    "EnergyLedger",
    "entity_index",
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
    num_users. The server's total starts at `flight`, the flat energy of
    reaching the hover point. `add_rounds` stops at the first round after
    which `entity`'s total would exceed `budget` (an infinite budget refuses
    none), so no such round is counted.
    """

    def __init__(self, num_users: int, budget: float = math.inf, entity: str = "uav",
                 flight: float = 0.0):
        if not budget > 0:
            raise ValueError("budget must be positive")
        if not 0 <= flight < math.inf:
            raise ValueError("flight energy must be >= 0 and finite")
        self._user = entity_index(entity, num_users)
        self._budget = budget
        self._uav = 0.0 + flight  # a float, and -0.0 reads 0.0
        self._users = np.zeros(num_users)

    def add_rounds(self, server: np.ndarray, users: np.ndarray, user_tx: np.ndarray,
                   user_compute: np.ndarray, user_hover: np.ndarray):
        """Count R rounds up to the first that would overdraw the budget: the server's
        (R,) joules and each member's of the cohorts `users` (R, m). Returns the rounds
        kept and arrays of their server and budget-entity totals (one array if the same)."""
        uav = np.cumsum(np.append(self._uav, server))
        # float addition is not associative: round by round, tx, then compute, then
        # hover (0.0 where the budget user sits a round out) fixes each total's last bit
        terms = np.stack((user_tx, user_compute, user_hover), axis=1)  # (R, 3, m)
        spent = uav[1:] if self._user is None else np.cumsum(np.append(
            self._users[self._user], (terms * (users == self._user)[:, None]).sum(axis=2)))[3::3]
        # no term is negative, so the running totals never fall
        kept = int(np.searchsorted(spent, self._budget, side="right"))
        np.add.at(self._users, np.repeat(users[:kept], 3, axis=0).ravel(), terms[:kept].ravel())
        self._uav = float(uav[kept])
        totals = uav[1:kept + 1]
        return kept, totals, totals if self._user is None else spent[:kept]

    def total(self, entity: str = "uav") -> float:
        user = entity_index(entity, len(self._users))
        return self._uav if user is None else float(self._users[user])
