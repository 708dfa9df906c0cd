#!/usr/bin/env python
"""Quickstart: one RLA multicast session sharing a bottleneck with TCP.

Builds the smallest interesting scenario — a three-receiver multicast
session competing with one TCP connection per branch through drop-tail
gateways — runs it for a simulated few minutes, and prints the metrics
the paper reports: throughput, mean congestion window, mean RTT,
congestion signals and window cuts, plus the essential-fairness verdict
of Theorem II.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import RLAConfig, RLASession, Simulator, TcpConfig, TcpFlow
from repro.models import check_essential_fairness
from repro.net import GatewayFactory, Network
from repro.units import mbps, ms, pps_to_bps, transmission_time

BRANCH_RATE_PPS = 200       # each branch bottleneck, packets/second
N_RECEIVERS = 3
WARMUP, DURATION = 20.0, 180.0


def main() -> None:
    sim = Simulator(seed=7)

    # -- topology: S -- G -- {R1, R2, R3}, per-branch bottlenecks --------
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("S", "G", mbps(100), ms(5),
                 queue_factory=GatewayFactory("droptail", sim, 100))
    receivers = [f"R{i}" for i in range(1, N_RECEIVERS + 1)]
    for receiver in receivers:
        net.add_link("G", receiver, pps_to_bps(BRANCH_RATE_PPS), ms(50))
    net.build_routes()

    # -- §3.1: random processing time breaks drop-tail phase effects ----
    jitter = transmission_time(1000, pps_to_bps(BRANCH_RATE_PPS))

    # -- one background TCP per branch -----------------------------------
    tcps = []
    for index, receiver in enumerate(receivers):
        flow = TcpFlow(sim, net, f"tcp-{index}", "S", receiver,
                       config=TcpConfig(phase_jitter=jitter))
        flow.start(offset=0.1 * index)
        tcps.append(flow)

    # -- the RLA multicast session ----------------------------------------
    session = RLASession(sim, net, "rla-0", "S", receivers,
                         config=RLAConfig(phase_jitter=jitter))
    session.start(offset=0.05)

    # -- warmup, then measure --------------------------------------------
    sim.run(until=WARMUP)
    session.mark()
    for flow in tcps:
        flow.mark()
    sim.run(until=WARMUP + DURATION)

    rla = session.report()
    print(f"simulated {DURATION:.0f}s after {WARMUP:.0f}s warmup "
          f"({sim.events_executed:,} events)\n")
    print(f"{'flow':10s} {'thrput':>8s} {'cwnd':>6s} {'RTT':>7s} {'cuts':>5s}")
    print(f"{'RLA':10s} {rla['throughput_pps']:8.1f} {rla['mean_cwnd']:6.1f} "
          f"{rla['mean_rtt']:7.3f} {rla['window_cuts']:5d}   "
          f"({rla['congestion_signals']} signals, "
          f"{rla['forced_cuts']} forced cuts)")
    worst_tcp = None
    for flow in tcps:
        report = flow.report()
        print(f"{flow.flow:10s} {report['throughput_pps']:8.1f} "
              f"{report['mean_cwnd']:6.1f} {report['mean_rtt']:7.3f} "
              f"{report['window_cuts']:5d}")
        if worst_tcp is None or report["throughput_pps"] < worst_tcp:
            worst_tcp = report["throughput_pps"]

    verdict = check_essential_fairness(
        rla["throughput_pps"], worst_tcp, max(rla["num_trouble"], 1), "droptail"
    )
    print(f"\nTheorem II check: {verdict}")


if __name__ == "__main__":
    main()
