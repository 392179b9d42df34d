"""Air-ground wireless link model.

A link between a hovering server and a node on the ground is described by its
bandwidth, transmit power and geometry (vertical offset H, horizontal
distance R). The achievable rate is the Shannon capacity under a
distance-squared path loss:

    rate = B * log2(1 + alpha0 * p / (sigma2 * (H^2 + R^2)))

Everything internal is in SI linear units (Hz, W, m). dB / dBm values are
converted once at the configuration boundary.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelParams",
    "db_to_linear",
    "dbm_to_watts",
    "link_rates",
]

def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** (x_dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class ChannelParams:
    """Physical constants shared by every link in a scenario.

    Defaults: B = 1 MHz total uplink spectrum, reference gain -50 dB,
    noise power -90 dBm, user transmit power 100 mW, and a separate 1 MHz
    downlink band for the server. The server's transmit power is its
    `UavProfile.tx_power`, which also sets its transmit energy.
    """

    total_bandwidth: float = 1e6
    ref_gain: float = db_to_linear(-50.0)
    noise: float = dbm_to_watts(-90.0)
    user_tx_power: float = 0.1
    uav_downlink_bandwidth: float = 1e6
    payload_bits_per_param: int = 32

    def __post_init__(self):
        for name in ("total_bandwidth", "ref_gain", "noise", "user_tx_power",
                     "uav_downlink_bandwidth"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("total_bandwidth", "uav_downlink_bandwidth"):
            # log2(1 + snr) <= 1024 at every finite SNR, so every rate below this is finite
            if not getattr(self, name) < 2.0 ** 1014:
                raise ValueError(f"{name} must be below 2**1014 Hz for a finite rate")
        if self.payload_bits_per_param < 1:
            raise ValueError("payload_bits_per_param must be >= 1")


def link_rates(bandwidth: float, tx_power: float, dist_sq: np.ndarray,
               params: ChannelParams) -> np.ndarray:
    """Shannon rate in bit/s of each link, given its squared distance: equal
    bit for bit to the scalar formula `oracles.rate_direct`. NumPy does the
    product, quotient, sum and scaling, each one correctly rounded operation
    in the scalar order; `math.log2` runs link by link (NumPy's vectorised
    log2 can differ in the last bit)."""
    snr = 1.0 + params.ref_gain * tx_power / (params.noise * dist_sq)
    return bandwidth * np.fromiter(map(math.log2, snr.tolist()), float, len(dist_sq))
