import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agifl.energy import EnergyLedger, UavProfile, entity_index
from agifl.oracles import round_duration, uav_round_energy, user_compute_energy, user_compute_time
from agifl.scenario import Scenario

SERVER = UavProfile()


def add_round(ledger, server, users, user_tx, user_compute, user_hover):
    """Offer one round as a block of one; True when the ledger keeps it."""
    kept, _, _ = ledger.add_rounds(np.array([server]), np.array([users], dtype=np.int64),
                                   *(np.array([terms], dtype=float)
                                     for terms in (user_tx, user_compute, user_hover)))
    return kept == 1


def offer(ledger, server, user_tx=None):
    """Offer a round whose cohort pays the given transmit energy only."""
    user_tx = user_tx or {}
    n = len(user_tx)
    return add_round(ledger, server, list(user_tx), list(user_tx.values()),
                     np.zeros(n), np.zeros(n))


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
        e = uav_round_energy(1.0, 0.1, SERVER.propulsion_power, SERVER.tx_power)
        assert abs(e - 100.001) < 1e-12

    def test_zero_durations(self):
        assert uav_round_energy(0.0, 0.0, SERVER.propulsion_power, SERVER.tx_power) == 0.0

    def test_monotone_in_round_time(self):
        powers = SERVER.propulsion_power, SERVER.tx_power
        assert uav_round_energy(2.0, 0.1, *powers) > uav_round_energy(1.0, 0.1, *powers)

    def test_downlink_longer_than_round_rejected(self):
        with pytest.raises(ValueError):
            uav_round_energy(0.5, 0.6, SERVER.propulsion_power, SERVER.tx_power)


class TestLedgerAndBudget:
    def test_additivity(self):
        ledger = EnergyLedger(num_users=2)
        per_round = [(10.0 + 0.5, {0: 0.2}), (12.0 + 0.25, {1: 0.1}), (8.0 + 0.75, {0: 0.3})]
        assert all(offer(ledger, server, user_tx) for server, user_tx in per_round)
        assert ledger.total("uav") == sum(server for server, _ in per_round)
        assert ledger.total("user:0") == pytest.approx(0.5)

    def test_refused_round_leaves_totals_unchanged(self):
        ledger = EnergyLedger(num_users=4, budget=10.0)
        assert offer(ledger, 5.0 + 0.1)
        assert not offer(ledger, 7.0 + 0.2, {3: 1.0})
        assert ledger.total("uav") == 5.0 + 0.1
        assert ledger.total("user:3") == 0.0

    def test_budget_halts_after_fourth_round(self):
        # 24 J per round against a 100 J budget: 96 <= 100 < 120
        ledger = EnergyLedger(num_users=1, budget=100.0)
        completed = 0
        for _ in range(10):
            if not offer(ledger, 24.0):
                break
            completed += 1
        assert completed == 4
        assert ledger.total("uav") == 96.0

    def test_infinite_budget_never_halts(self):
        ledger = EnergyLedger(num_users=1)
        for _ in range(1000):
            assert offer(ledger, 1e6)

    def test_budget_below_first_round(self):
        ledger = EnergyLedger(num_users=1, budget=10.0)
        assert not offer(ledger, 24.0)
        assert ledger.total("uav") == 0.0

    def test_invalid_budget(self):
        for budget in (0.0, -1.0):
            with pytest.raises(ValueError, match="budget must be positive"):
                EnergyLedger(num_users=1, budget=budget)

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            EnergyLedger(3, budget=math.nan)

    @pytest.mark.parametrize("flight", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_flight_rejected(self, flight):
        with pytest.raises(ValueError, match="flight energy must be >= 0 and finite"):
            EnergyLedger(3, flight=flight)

    def test_unknown_entity_raises(self):
        ledger = EnergyLedger(num_users=3)
        offer(ledger, 5.0, {2: 1.0})
        assert ledger.total("user:2") == 1.0
        for entity in ("uva", "user:3", "user:-1", "user:x", "user:", "server"):
            with pytest.raises(ValueError, match="unknown energy entity"):
                ledger.total(entity)
            with pytest.raises(ValueError, match="unknown energy entity"):
                EnergyLedger(num_users=3, budget=1.0, entity=entity)

    def test_entity_index(self):
        assert entity_index("uav", 0) is None
        assert entity_index("user:0", 1) == 0
        assert entity_index("user:41", 42) == 41
        with pytest.raises(ValueError):
            entity_index("user:42", 42)

    def test_per_user_terms_add_in_order(self):
        # tx, then compute, then hover: each user's total is that running
        # sum; a refused round leaves every total as it was
        ledger = EnergyLedger(num_users=3, budget=1.0, entity="user:0")
        users = np.array([0, 2])
        tx, comp, hover = np.array([0.1, 0.2]), np.array([0.7, 0.0]), np.array([0.0, 0.3])
        assert add_round(ledger, 0.0, [2], [0.05], [0.0], [0.0])
        assert ledger.total("user:2") == 0.05
        assert add_round(ledger, 1.5, users, tx, comp, hover)
        assert ledger.total("user:0") == 0.0 + 0.1 + 0.7 + 0.0
        assert ledger.total("user:1") == 0.0
        assert ledger.total("user:2") == 0.05 + 0.2 + 0.0 + 0.3
        assert not add_round(ledger, 1.5, users, tx, comp, hover)  # user 0 would reach 1.6
        assert ledger.total("user:0") == 0.0 + 0.1 + 0.7 + 0.0
        assert ledger.total("user:2") == 0.05 + 0.2 + 0.0 + 0.3
        assert ledger.total("uav") == 1.5


joules = st.floats(0.0, 10.0)


@st.composite
def ledger_rounds(draw):
    """(num_users, entity, budget, flight energy, rounds); a round is
    (server joules, cohort of distinct ids, [(tx, compute, hover) per member])."""
    n = draw(st.integers(1, 6))
    entity = draw(st.sampled_from(["uav"] + [f"user:{u}" for u in range(n)]))
    budget = draw(st.floats(1e-6, 60.0) | st.just(math.inf))
    rounds = []
    for _ in range(draw(st.integers(0, 12))):
        cohort = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        terms = draw(st.lists(st.tuples(joules, joules, joules),
                              min_size=len(cohort), max_size=len(cohort)))
        rounds.append((draw(joules), cohort, terms))
    return n, entity, budget, draw(joules), rounds


class TestLedgerProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=ledger_rounds())
    # 0.06 / 0.01 is 6.0, while six additions of 0.01 give 0.060000000000000005:
    # a 0.06 budget keeps five rounds of 0.01, not six
    @example(case=(1, "uav", 0.06, 0.0, [(0.01, [0], [(0.01, 0.0, 0.0)])] * 7))
    @example(case=(1, "user:0", 0.06, 0.0, [(0.01, [0], [(0.01, 0.0, 0.0)])] * 7))
    def test_refuses_exactly_when_a_sequential_reference_overdraws(self, case):
        n, entity, budget, flight, rounds = case
        ledger = EnergyLedger(n, budget, entity, flight)
        uav, users = flight, [0.0] * n
        for server, cohort, terms in rounds:
            next_uav, next_users = uav + server, list(users)
            for u, (tx, comp, hover) in zip(cohort, terms):
                next_users[u] = next_users[u] + tx + comp + hover
            spent = next_uav if entity == "uav" else next_users[entity_index(entity, n)]
            kept = not spent > budget
            if kept:
                uav, users = next_uav, next_users
            tx, comp, hover = np.array(terms).T
            assert add_round(ledger, server, cohort, tx, comp, hover) == kept
            assert ledger.total("uav") == uav
            assert [ledger.total(f"user:{u}") for u in range(n)] == users


    @settings(max_examples=300, deadline=None)
    @given(case=ledger_rounds())
    def test_a_block_equals_its_rounds_one_at_a_time(self, case):
        n, entity, budget, flight, rounds = case
        # the cohorts of a block share one size: cut each to the smallest
        m = min((len(cohort) for _, cohort, _ in rounds), default=0)
        server = np.array([joules for joules, _, _ in rounds])
        cohorts = np.array([cohort[:m] for _, cohort, _ in rounds],
                           dtype=np.int64).reshape(len(rounds), m)
        terms = np.array([terms[:m] for _, _, terms in rounds]).reshape(len(rounds), m, 3)
        terms = terms.transpose(2, 0, 1)  # tx, compute, hover, each (R, m)
        block = EnergyLedger(n, budget, entity, flight)
        single = EnergyLedger(n, budget, entity, flight)
        kept, uav, spent = block.add_rounds(server, cohorts, *terms)
        totals = []
        for r in range(len(rounds)):
            if not single.add_rounds(server[r:r + 1], cohorts[r:r + 1],
                                     *(t[r:r + 1] for t in terms))[0]:
                break
            totals.append((single.total("uav"), single.total(entity)))
        assert kept == len(totals)
        assert list(zip(uav, spent)) == totals
        assert block.total("uav") == single.total("uav")
        assert ([block.total(f"user:{u}") for u in range(n)]
                == [single.total(f"user:{u}") for u in range(n)])


class TestProfilesAndUserEnergy:
    def test_compute_energy_quadratic_in_frequency(self):
        slow = user_compute_energy(1.0e9, 1e9, 1e-28)
        fast = user_compute_energy(2.0e9, 1e9, 1e-28)
        assert fast == pytest.approx(4 * slow)

    def test_default_kappa_value(self):
        # no compute energy by default; a typical kappa * f^2 * cycles is
        # 1e-28 * (2e9)^2 * 1e9
        assert Scenario().kappa == 0.0
        assert user_compute_energy(2.0e9, 1e9, 1e-28) == pytest.approx(1e-28 * 4e18 * 1e9)

    def test_profile_validation(self):
        # the per-client checks (cpu frequency, cycles per bit) are
        # Scenario's: tests/test_scenario.py::TestValidation
        for field in ("tx_power", "propulsion_power", "altitude"):
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="must be positive"):
                    UavProfile(**{field: bad})
