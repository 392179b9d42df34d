import math

import numpy as np
import pytest

from agifl.energy import (CONTINUE, HALT, EnergyLedger, RoundEnergy,
                          UavProfile, apply_budget, entity_index,
                          round_duration, uav_round_energy,
                          user_compute_energy, user_compute_time)


def round_entry(hover=0.0, uav_tx=0.0, user_tx=None):
    """A RoundEnergy whose cohort pays the given transmit energy only."""
    user_tx = user_tx or {}
    n = len(user_tx)
    return RoundEnergy(hover=hover, uav_tx=uav_tx,
                       users=np.array(list(user_tx), dtype=np.int64),
                       user_tx=np.array(list(user_tx.values()), dtype=float),
                       user_compute=np.zeros(n), user_hover=np.zeros(n))


class TestComputeTime:
    def test_paper_scale_example(self):
        # 5 epochs x 600 samples x 6280 bits x 10 cycles / 2 GHz
        t = user_compute_time(600, 6280, 10, 2.0e9, epochs=5)
        assert abs(t - 0.0942) < 1e-12

    def test_zero_samples(self):
        assert user_compute_time(0, 6280, 10, 1.8e9, epochs=5) == 0.0

    def test_frequency_proportionality(self):
        slow = user_compute_time(100, 800, 10, 1.0e9, epochs=2)
        fast = user_compute_time(100, 800, 10, 2.0e9, epochs=2)
        assert fast == slow / 2

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            user_compute_time(10, 10, 10, 0.0, epochs=1)


class TestRoundDuration:
    def test_max_rule(self):
        assert round_duration(0.07, [(0.09, 0.08), (0.05, 0.06)]) == pytest.approx(0.24, abs=1e-15)

    def test_single_client(self):
        assert round_duration(0.1, [(0.2, 0.3)]) == pytest.approx(0.6, abs=1e-15)

    def test_all_zero(self):
        assert round_duration(0.0, [(0.0, 0.0)]) == 0.0

    def test_empty_clients_rejected(self):
        with pytest.raises(ValueError):
            round_duration(0.1, [])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            round_duration(-0.1, [(0.0, 0.0)])


class TestUavEnergy:
    def test_hand_value(self):
        e = uav_round_energy(1.0, 0.1, UavProfile())
        assert abs(e - 100.001) < 1e-12

    def test_zero_durations(self):
        assert uav_round_energy(0.0, 0.0, UavProfile()) == 0.0

    def test_monotone_in_round_time(self):
        profile = UavProfile()
        assert (uav_round_energy(2.0, 0.1, profile)
                > uav_round_energy(1.0, 0.1, profile))

    def test_downlink_longer_than_round_rejected(self):
        with pytest.raises(ValueError):
            uav_round_energy(0.5, 0.6, UavProfile())


class TestLedgerAndBudget:
    def test_additivity(self):
        ledger = EnergyLedger(num_users=2)
        per_round = [round_entry(hover=10.0, uav_tx=0.5, user_tx={0: 0.2}),
                     round_entry(hover=12.0, uav_tx=0.25, user_tx={1: 0.1}),
                     round_entry(hover=8.0, uav_tx=0.75, user_tx={0: 0.3})]
        for entry in per_round:
            ledger.add_round(entry)
        assert ledger.total("uav") == sum(e.hover + e.uav_tx for e in per_round)
        assert ledger.total("user:0") == pytest.approx(0.5)
        assert len(ledger) == 3

    def test_drop_last_round(self):
        ledger = EnergyLedger(num_users=4)
        ledger.add_round(round_entry(hover=5.0, uav_tx=0.1))
        ledger.add_round(round_entry(hover=7.0, uav_tx=0.2, user_tx={3: 1.0}))
        ledger.drop_last_round()
        assert len(ledger) == 1
        assert ledger.total("uav") == pytest.approx(5.1)
        assert ledger.total("user:3") == pytest.approx(0.0)

    def test_budget_halts_after_fourth_round(self):
        # 24 J per round against a 100 J budget: 96 <= 100 < 120
        ledger = EnergyLedger(num_users=1)
        completed = 0
        for _ in range(10):
            ledger.add_round(RoundEnergy(hover=24.0))
            if apply_budget(ledger, 100.0) == HALT:
                ledger.drop_last_round()
                break
            completed += 1
        assert completed == 4
        assert ledger.total("uav") == pytest.approx(96.0)

    def test_infinite_budget_never_halts(self):
        ledger = EnergyLedger(num_users=1)
        for _ in range(1000):
            ledger.add_round(RoundEnergy(hover=1e6))
            assert apply_budget(ledger, math.inf) == CONTINUE

    def test_budget_below_first_round(self):
        ledger = EnergyLedger(num_users=1)
        ledger.add_round(RoundEnergy(hover=24.0))
        assert apply_budget(ledger, 10.0) == HALT
        ledger.drop_last_round()
        assert len(ledger) == 0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            apply_budget(EnergyLedger(num_users=1), 0.0)

    def test_unknown_entity_raises(self):
        ledger = EnergyLedger(num_users=3)
        ledger.add_round(round_entry(hover=5.0, user_tx={2: 1.0}))
        assert ledger.total("user:2") == 1.0
        for entity in ("uva", "user:3", "user:-1", "user:x", "user:", "server"):
            with pytest.raises(ValueError, match="unknown energy entity"):
                ledger.total(entity)
            with pytest.raises(ValueError, match="unknown energy entity"):
                apply_budget(ledger, 1.0, entity)

    def test_entity_index(self):
        assert entity_index("uav", 0) is None
        assert entity_index("user:0", 1) == 0
        assert entity_index("user:41", 42) == 41
        with pytest.raises(ValueError):
            entity_index("user:42", 42)

    def test_per_user_terms_add_in_order(self):
        # tx, then compute, then hover: each user's total is that running
        # sum; a dropped round subtracts the user's round total
        ledger = EnergyLedger(num_users=3)
        users = np.array([0, 2])
        tx, comp, hover = np.array([0.1, 0.2]), np.array([0.7, 0.0]), np.array([0.0, 0.3])
        ledger.charge("user:2", 0.05)
        ledger.add_round(RoundEnergy(hover=1.0, uav_tx=0.5, users=users, user_tx=tx,
                                     user_compute=comp, user_hover=hover))
        assert ledger.total("user:0") == 0.0 + 0.1 + 0.7 + 0.0
        assert ledger.total("user:1") == 0.0
        assert ledger.total("user:2") == 0.05 + 0.2 + 0.0 + 0.3
        ledger.drop_last_round()
        assert ledger.total("user:0") == (0.1 + 0.7) - (0.1 + 0.7 + 0.0)
        assert ledger.total("user:2") == (0.05 + 0.2 + 0.3) - (0.2 + 0.0 + 0.3)
        assert ledger.total("uav") == 0.0


class TestProfilesAndUserEnergy:
    def test_compute_energy_quadratic_in_frequency(self):
        slow = user_compute_energy(1.0e9, 1e9)
        fast = user_compute_energy(2.0e9, 1e9)
        assert fast == pytest.approx(4 * slow)

    def test_default_kappa_value(self):
        # kappa * f^2 * cycles = 1e-28 * (2e9)^2 * 1e9
        assert user_compute_energy(2.0e9, 1e9) == pytest.approx(1e-28 * 4e18 * 1e9)

    def test_profile_validation(self):
        # the per-client checks (cpu frequency, cycles per bit) are
        # Scenario's: tests/test_scenario.py::TestValidation
        with pytest.raises(ValueError):
            UavProfile(propulsion_power=0.0)
