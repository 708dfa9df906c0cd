#!/usr/bin/env python
"""RED vs drop-tail gateways for the same RLA/TCP sharing scenario.

The paper proves tighter essential-fairness bounds under RED (Theorem I:
a=1/3, b=sqrt(3n)) than under drop-tail (Theorem II: a=1/4, b=2n) because
RED equalizes the loss *probability* seen by all connections, while
drop-tail only equalizes the congestion *frequency* — and only once phase
effects are eliminated.  This example runs the same three-branch scenario
through both gateway types and prints the two verdicts side by side.

Run:  python examples/red_vs_droptail.py
"""

from __future__ import annotations

from repro import RLAConfig, RLASession, Simulator, TcpConfig, TcpFlow
from repro.models import check_essential_fairness, essential_fairness_bounds
from repro.topology.restricted import RestrictedSpec, build_restricted
from repro.units import pps_to_bps, transmission_time

WARMUP, DURATION = 20.0, 120.0
BRANCHES = [200.0, 200.0, 200.0]   # pkt/s, one TCP each


def run(gateway: str) -> dict:
    spec = RestrictedSpec(mu_pps=BRANCHES, gateway=gateway)
    sim = Simulator(seed=11)
    net, receivers = build_restricted(sim, spec)
    # §3.1: drop-tail needs the random processing time; RED does not.
    jitter = (transmission_time(1000, pps_to_bps(min(BRANCHES)))
              if gateway == "droptail" else None)
    tcps = []
    for index, receiver in enumerate(receivers):
        flow = TcpFlow(sim, net, f"tcp-{index}", "S", receiver,
                       config=TcpConfig(phase_jitter=jitter))
        flow.start(0.1 * index)
        tcps.append(flow)
    session = RLASession(sim, net, "rla-0", "S", receivers,
                         config=RLAConfig(phase_jitter=jitter))
    session.start(0.05)
    sim.run(until=WARMUP)
    session.mark()
    for flow in tcps:
        flow.mark()
    sim.run(until=WARMUP + DURATION)
    rla = session.report()
    tcp_rates = [flow.report()["throughput_pps"] for flow in tcps]
    return {"rla": rla, "tcp_rates": tcp_rates}


def main() -> None:
    for gateway in ("droptail", "red"):
        outcome = run(gateway)
        rla = outcome["rla"]
        wtcp = min(outcome["tcp_rates"])
        n = max(rla["num_trouble"], 1)
        a, b = essential_fairness_bounds(n, gateway)
        verdict = check_essential_fairness(rla["throughput_pps"], wtcp, n,
                                           gateway)
        print(f"--- {gateway} (theorem bounds a={a:.2f}, b={b:.2f}) ---")
        print(f"RLA : {rla['throughput_pps']:7.1f} pkt/s, "
              f"cwnd {rla['mean_cwnd']:5.1f}, "
              f"cuts {rla['window_cuts']} of {rla['congestion_signals']} signals")
        print(f"TCPs: {', '.join(f'{rate:.1f}' for rate in outcome['tcp_rates'])}"
              f" pkt/s")
        print(f"{verdict}\n")


if __name__ == "__main__":
    main()
