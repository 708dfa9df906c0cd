#!/usr/bin/env python
"""Quickstart: one RLA multicast session sharing a bottleneck with TCP.

Runs the smallest interesting scenario — a three-receiver multicast
session competing with one TCP connection per branch through drop-tail
gateways (the figure 1 topology, S -- G -- {R1, R2, R3}) — for a
simulated few minutes, and prints the metrics the paper reports:
throughput, mean congestion window, mean RTT, congestion signals and
window cuts, plus the essential-fairness verdict of Theorem II.

The run is a :class:`repro.experiments.sweeps.RestrictedRunSpec`: its
endpoints get §3.1's random processing time (one packet's service time
at the branch rate), which breaks drop-tail phase effects.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.experiments.sweeps import RestrictedRunSpec, build_restricted_world
from repro.lifecycle import run_world
from repro.models import check_essential_fairness
from repro.topology.restricted import RestrictedSpec

BRANCH_RATE_PPS = 200       # each branch bottleneck, packets/second
N_RECEIVERS = 3
WARMUP, DURATION = 20.0, 180.0


def main() -> None:
    spec = RestrictedRunSpec(
        RestrictedSpec(mu_pps=[BRANCH_RATE_PPS] * N_RECEIVERS),
        duration=DURATION, warmup=WARMUP, seed=7)
    world = build_restricted_world(spec)
    row = run_world(world)

    rla = row["rla"]
    print(f"simulated {DURATION:.0f}s after {WARMUP:.0f}s warmup "
          f"({world.sim.events_executed:,} events)\n")
    print(f"{'flow':10s} {'thrput':>8s} {'cwnd':>6s} {'RTT':>7s} {'cuts':>5s}")
    print(f"{'RLA':10s} {rla['throughput_pps']:8.1f} {rla['mean_cwnd']:6.1f} "
          f"{rla['mean_rtt']:7.3f} {rla['window_cuts']:5d}   "
          f"({rla['congestion_signals']} signals, "
          f"{rla['forced_cuts']} forced cuts)")
    for flow, report in zip(world.flows, row["tcp"]):
        print(f"{flow.flow:10s} {report['throughput_pps']:8.1f} "
              f"{report['mean_cwnd']:6.1f} {report['mean_rtt']:7.3f} "
              f"{report['window_cuts']:5d}")

    verdict = check_essential_fairness(
        rla["throughput_pps"], row["wtcp_pps"], row["num_trouble"], "droptail"
    )
    print(f"\nTheorem II check: {verdict}")


if __name__ == "__main__":
    main()
