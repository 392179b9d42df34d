import math

import numpy as np
import pytest

from agifl.channel import (ChannelParams, LinkBudget, db_to_linear,
                           dbm_to_watts, link_rate, link_rates, per_client_bandwidth,
                           tx_time)

PAPER = ChannelParams()  # case-study constants


class TestUnits:
    def test_zero_dbm_is_one_milliwatt(self):
        assert dbm_to_watts(0.0) == 1e-3

    def test_minus_50_db(self):
        assert abs(db_to_linear(-50.0) - 1e-5) < 1e-20

    def test_minus_90_dbm(self):
        assert abs(dbm_to_watts(-90.0) - 1e-12) < 1e-24


class TestLinkRate:
    def test_uplink_overhead_value(self):
        # B/(theta*U) = 5e5 Hz, SNR = 1e-5*0.1/(1e-12*100^2) = 100
        rate = link_rate(LinkBudget(5e5, 0.1, 100.0, 0.0), PAPER)
        assert abs(rate - 5e5 * math.log2(101)) <= 1e-9 * rate

    def test_uplink_at_100m_horizontal(self):
        rate = link_rate(LinkBudget(5e5, 0.1, 100.0, 100.0), PAPER)
        assert abs(rate - 5e5 * math.log2(51)) <= 1e-9 * rate

    def test_downlink_value(self):
        rate = link_rate(LinkBudget(1e6, 0.01, 100.0, 0.0), PAPER)
        assert abs(rate - 1e6 * math.log2(11)) <= 1e-9 * rate

    def test_monotone_in_geometry(self):
        base = link_rate(LinkBudget(5e5, 0.1, 100.0, 50.0), PAPER)
        assert link_rate(LinkBudget(5e5, 0.1, 100.0, 80.0), PAPER) < base
        assert link_rate(LinkBudget(5e5, 0.1, 150.0, 50.0), PAPER) < base

    def test_monotone_in_radio_params(self):
        base = link_rate(LinkBudget(5e5, 0.1, 100.0, 50.0), PAPER)
        assert link_rate(LinkBudget(6e5, 0.1, 100.0, 50.0), PAPER) > base
        assert link_rate(LinkBudget(5e5, 0.2, 100.0, 50.0), PAPER) > base
        better_gain = ChannelParams(ref_gain=2e-5)
        assert link_rate(LinkBudget(5e5, 0.1, 100.0, 50.0), better_gain) > base
        more_noise = ChannelParams(noise=2e-12)
        assert link_rate(LinkBudget(5e5, 0.1, 100.0, 50.0), more_noise) < base

    def test_vanishes_at_long_range_but_stays_positive(self):
        far = link_rate(LinkBudget(5e5, 0.1, 100.0, 1e7), PAPER)
        assert 0 < far < 1.0

    def test_bandwidth_linearity(self):
        r1 = link_rate(LinkBudget(5e5, 0.1, 100.0, 30.0), PAPER)
        r2 = link_rate(LinkBudget(1e6, 0.1, 100.0, 30.0), PAPER)
        assert abs(r2 - 2 * r1) <= 1e-12 * r2

    def test_colocated_endpoints_rejected(self):
        with pytest.raises(ValueError):
            LinkBudget(5e5, 0.1, 0.0, 0.0)

    def test_zero_altitude_with_horizontal_distance_ok(self):
        assert link_rate(LinkBudget(5e5, 0.1, 0.0, 100.0), PAPER) > 0


class TestLinkRates:
    def test_each_entry_equals_link_rate(self):
        gen = np.random.default_rng(0)
        altitudes = gen.choice([0.0, 90.0, 100.0], size=500)
        horizontal = gen.uniform(0.5, 2000.0, size=500)
        dist_sq = np.array([a ** 2 + h ** 2 for a, h in zip(altitudes.tolist(),
                                                            horizontal.tolist())])
        for bandwidth, power in [(5e5, 0.1), (1e6, 0.01)]:
            rates = link_rates(bandwidth, power, dist_sq, PAPER)
            assert rates.tolist() == [
                link_rate(LinkBudget(bandwidth, power, a, h), PAPER)
                for a, h in zip(altitudes.tolist(), horizontal.tolist())]


class TestTxTime:
    def test_zero_payload(self):
        assert tx_time(0, 3.3e6) == 0.0

    def test_model_upload_time(self):
        # 7850 params x 32 bits over the zero-distance uplink
        rate = 5e5 * math.log2(101)
        expected = 251200 / rate
        assert abs(tx_time(251200, rate) - expected) <= 1e-12 * expected
        assert abs(expected - 0.07546) < 1e-4

    def test_rate_proportionality(self):
        assert tx_time(1000, 2e6) == tx_time(1000, 1e6) / 2

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            tx_time(100, 0.0)

    def test_array_of_rates(self):
        rates = np.array([1e6, 2.5e6, 3.3e6])
        assert tx_time(1000, rates).tolist() == [tx_time(1000, r) for r in rates.tolist()]
        with pytest.raises(ValueError):
            tx_time(1000, np.array([1e6, 0.0]))


class TestPerClientBandwidth:
    def test_split_matches_static_allocation(self):
        # theta*U = 2 selected users share B = 1 MHz
        assert per_client_bandwidth(PAPER, 2) == 5e5

    def test_override_wins(self):
        params = ChannelParams(uplink_bandwidth_override=7e5)
        assert per_client_bandwidth(params, 4) == 7e5

    def test_invalid_cohort(self):
        with pytest.raises(ValueError):
            per_client_bandwidth(PAPER, 0)


class TestChannelParams:
    @pytest.mark.parametrize("field", ["total_bandwidth", "ref_gain", "noise", "user_tx_power",
                                       "uav_downlink_bandwidth", "uplink_bandwidth_override"])
    @pytest.mark.parametrize("bad", [0.0, -5.0, math.nan])
    def test_non_positive_and_nan_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ChannelParams(**{field: bad})
