"""Walk through the wireless link model.

Evaluates the uplink and downlink Shannon rates for a server hovering at
100 m as a user moves away horizontally, then turns rates into model
upload times for a 7850-parameter classifier (251200 bits at 32 bits per
parameter).
"""

from agifl import (ChannelParams, LinkBudget, UavProfile, link_rate, per_client_bandwidth,
                   tx_time)

channel = ChannelParams()  # 1 MHz uplink pool, -50 dB gain, -90 dBm noise
uav = UavProfile()  # 10 mW server transmitter
uplink_bw = per_client_bandwidth(channel, cohort_size=2)
payload_bits = 7850 * channel.payload_bits_per_param

print(f"uplink bandwidth per selected client: {uplink_bw / 1e3:.0f} kHz")
print(f"model payload: {payload_bits} bits")
print()
print(f"{'horizontal m':>12} {'uplink Mbit/s':>14} {'upload s':>10} "
      f"{'downlink Mbit/s':>16}")
for horizontal in (0, 100, 250, 500, 750, 1000, 1400):
    up = link_rate(LinkBudget(uplink_bw, channel.user_tx_power, 100.0,
                              horizontal), channel)
    down = link_rate(LinkBudget(channel.uav_downlink_bandwidth,
                                uav.tx_power, 100.0, horizontal),
                     channel)
    print(f"{horizontal:>12} {up / 1e6:>14.4f} {tx_time(payload_bits, up):>10.4f} "
          f"{down / 1e6:>16.4f}")

print()
print("Moving the hover point closer to users raises their rates and")
print("shortens every round, which is exactly how placement converts")
print("into energy savings.")
