#!/usr/bin/env python
"""The generalized RLA with receivers at very different distances (§5.3).

A session with one nearby receiver (10 ms one-way) and one far receiver
(100 ms one-way) shares a common bottleneck with TCP.  Without RTT
scaling, the near receiver's frequent congestion signals would throttle
the whole session; the generalized RLA discounts them by
``(srtt_i / srtt_max)^2``.  This example runs both variants and shows the
difference in how often the sender listens to each receiver's signals.

Run:  python examples/heterogeneous_rtt.py
"""

from __future__ import annotations

from repro import RLAConfig, RLASession, Simulator, TcpConfig, TcpFlow
from repro.net import GatewayFactory, Network
from repro.units import mbps, ms, pps_to_bps, transmission_time

WARMUP, DURATION = 20.0, 120.0
SHARED_RATE = 400.0  # pkt/s bottleneck shared by everyone


def build(sim: Simulator) -> Network:
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    # shared bottleneck S -> G, then fast branches of unequal length
    net.add_link("S", "G", pps_to_bps(SHARED_RATE), ms(5))
    net.add_link("G", "Rnear", mbps(100), ms(10))
    net.add_link("G", "Rfar", mbps(100), ms(100))
    net.build_routes()
    return net


def run(generalized: bool) -> dict:
    sim = Simulator(seed=13)
    net = build(sim)
    jitter = transmission_time(1000, pps_to_bps(SHARED_RATE))
    tcp = TcpFlow(sim, net, "tcp-0", "S", "Rfar",
                  config=TcpConfig(phase_jitter=jitter))
    tcp.start(0.1)
    session = RLASession(sim, net, "rla-0", "S", ["Rnear", "Rfar"],
                         config=RLAConfig(phase_jitter=jitter,
                                          rtt_scaled_pthresh=generalized))
    session.start(0.05)
    sim.run(until=WARMUP)
    session.mark()
    tcp.mark()
    sim.run(until=WARMUP + DURATION)
    return {"rla": session.report(), "tcp": tcp.report()}


def main() -> None:
    for generalized in (False, True):
        label = "generalized (pthresh ~ (rtt/rtt_max)^2)" if generalized \
            else "original (pthresh = 1/n)"
        outcome = run(generalized)
        rla, tcp = outcome["rla"], outcome["tcp"]
        signals = rla["signals_by_receiver"]
        print(f"--- {label} ---")
        print(f"RLA : {rla['throughput_pps']:7.1f} pkt/s, cwnd "
              f"{rla['mean_cwnd']:5.1f}, cuts {rla['window_cuts']}")
        print(f"TCP : {tcp['throughput_pps']:7.1f} pkt/s, cwnd "
              f"{tcp['mean_cwnd']:5.1f}")
        print(f"signals: near={signals.get('Rnear', 0)}, "
              f"far={signals.get('Rfar', 0)}\n")


if __name__ == "__main__":
    main()
