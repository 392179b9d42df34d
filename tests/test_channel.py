import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agifl.channel import (ChannelParams, db_to_linear, dbm_to_watts, link_rates,
                           per_client_bandwidth, tx_time)
from agifl.oracles import rate_direct

PAPER = ChannelParams()  # case-study constants


def one_rate(bandwidth, tx_power, altitude, horizontal, params=PAPER):
    """`link_rates` of the one link at this vertical and horizontal distance."""
    dist_sq = np.array([altitude ** 2 + horizontal ** 2])
    return float(link_rates(bandwidth, tx_power, dist_sq, params)[0])


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
        rate = one_rate(5e5, 0.1, 100.0, 0.0)
        assert abs(rate - 5e5 * math.log2(101)) <= 1e-9 * rate

    def test_uplink_at_100m_horizontal(self):
        rate = one_rate(5e5, 0.1, 100.0, 100.0)
        assert abs(rate - 5e5 * math.log2(51)) <= 1e-9 * rate

    def test_downlink_value(self):
        rate = one_rate(1e6, 0.01, 100.0, 0.0)
        assert abs(rate - 1e6 * math.log2(11)) <= 1e-9 * rate

    def test_monotone_in_geometry(self):
        base = one_rate(5e5, 0.1, 100.0, 50.0)
        assert one_rate(5e5, 0.1, 100.0, 80.0) < base
        assert one_rate(5e5, 0.1, 150.0, 50.0) < base

    def test_monotone_in_radio_params(self):
        base = one_rate(5e5, 0.1, 100.0, 50.0)
        assert one_rate(6e5, 0.1, 100.0, 50.0) > base
        assert one_rate(5e5, 0.2, 100.0, 50.0) > base
        better_gain = ChannelParams(ref_gain=2e-5)
        assert one_rate(5e5, 0.1, 100.0, 50.0, better_gain) > base
        more_noise = ChannelParams(noise=2e-12)
        assert one_rate(5e5, 0.1, 100.0, 50.0, more_noise) < base

    def test_vanishes_at_long_range_but_stays_positive(self):
        far = one_rate(5e5, 0.1, 100.0, 1e7)
        assert 0 < far < 1.0

    def test_bandwidth_linearity(self):
        r1 = one_rate(5e5, 0.1, 100.0, 30.0)
        r2 = one_rate(1e6, 0.1, 100.0, 30.0)
        assert abs(r2 - 2 * r1) <= 1e-12 * r2

    def test_zero_altitude_with_horizontal_distance_ok(self):
        assert one_rate(5e5, 0.1, 0.0, 100.0) > 0


class TestLinkRates:
    """Every entry of `link_rates` equals the scalar formula bit for bit."""

    def test_each_entry_equals_rate_direct(self):
        gen = np.random.default_rng(0)
        altitudes = gen.choice([0.0, 90.0, 100.0], size=500)
        horizontal = gen.uniform(0.5, 2000.0, size=500)
        dist_sq = np.array([a ** 2 + h ** 2 for a, h in zip(altitudes.tolist(),
                                                            horizontal.tolist())])
        for bandwidth, power in [(5e5, 0.1), (1e6, 0.01)]:
            rates = link_rates(bandwidth, power, dist_sq, PAPER)
            assert rates.tolist() == [
                rate_direct(bandwidth, power, a, h, PAPER.ref_gain, PAPER.noise)
                for a, h in zip(altitudes.tolist(), horizontal.tolist())]

    @settings(max_examples=60, deadline=None)
    @given(links=st.lists(st.tuples(st.just(0.0) | st.floats(1e-3, 1e5),
                                    st.floats(1e-3, 1e5)), min_size=1, max_size=200),
           bandwidth=st.floats(1e3, 1e7), power=st.floats(1e-3, 10.0))
    def test_equals_rate_direct_from_a_millimetre_to_100_km(self, links, bandwidth, power):
        dist_sq = np.array([a ** 2 + h ** 2 for a, h in links])
        assert link_rates(bandwidth, power, dist_sq, PAPER).tolist() == [
            rate_direct(bandwidth, power, a, h, PAPER.ref_gain, PAPER.noise)
            for a, h in links]


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
    @pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
    def test_non_positive_and_nan_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ChannelParams(**{field: bad})
