"""Ablation A3 — phase-effect elimination on drop-tail gateways (§3.1).

With drop-tail queues the drop pattern is exquisitely sensitive to packet
arrival phase; the paper adds a uniform random processing time (up to one
bottleneck service time) to break it.  We run the same shared-bottleneck
scenario with and without the jitter and report how evenly the competing
connections share — jitter should never make sharing worse, and without
it the share dispersion can be extreme.
"""

from __future__ import annotations

from _scale import bench_duration, bench_warmup
from repro.models.fairness import check_essential_fairness
from repro.rla.config import RLAConfig
from repro.rla.session import RLASession
from repro.sim.engine import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.flow import TcpFlow
from repro.topology.restricted import PACKET_SIZE, RestrictedSpec, build_restricted
from repro.units import pps_to_bps, transmission_time

SPEC = RestrictedSpec(mu_pps=[200, 200, 200])


def _run(jitter_on: bool, duration: float, warmup: float, seed: int = 3):
    sim = Simulator(seed=seed)
    net, receivers = build_restricted(sim, SPEC)
    jitter = (transmission_time(PACKET_SIZE, pps_to_bps(200))
              if jitter_on else None)
    flows = []
    for index, receiver in enumerate(receivers):
        flow = TcpFlow(sim, net, f"tcp-{index}", "S", receiver,
                       config=TcpConfig(phase_jitter=jitter))
        flow.start(0.1 * index)
        flows.append(flow)
    session = RLASession(sim, net, "rla-0", "S", receivers,
                         config=RLAConfig(phase_jitter=jitter))
    session.start(0.05)
    sim.run(until=warmup)
    session.mark()
    for flow in flows:
        flow.mark()
    sim.run(until=warmup + duration)
    tcp_rates = [flow.report()["throughput_pps"] for flow in flows]
    return {
        "rla": session.report()["throughput_pps"],
        "tcp": tcp_rates,
        "tcp_balance": min(tcp_rates) / max(tcp_rates) if max(tcp_rates) else 0,
    }


def test_phase_jitter_ablation():
    duration, warmup = bench_duration(), bench_warmup()

    reports = {"with": _run(True, duration, warmup),
               "without": _run(False, duration, warmup)}
    for label, report in reports.items():
        rates = ", ".join(f"{r:.1f}" for r in report["tcp"])
        print(f"\n[ablation phase] {label:7s} jitter: RLA {report['rla']:.1f}, "
              f"TCP [{rates}], balance {report['tcp_balance']:.2f}")

    with_jitter = reports["with"]
    # with jitter, nobody is starved and the RLA stays inside Theorem II
    # against the worst TCP (drop-tail, n = 3)
    assert with_jitter["tcp_balance"] > 0.4
    verdict = check_essential_fairness(with_jitter["rla"],
                                       min(with_jitter["tcp"]), 3, "droptail")
    assert verdict and verdict.fair, verdict
    # jitter never costs much utilization: the multicast stream occupies
    # every branch, so per-branch load is tcp_i + rla against 200 pkt/s
    floor = 0.8 if bench_duration() >= 40 else 0.6
    for tcp_rate in with_jitter["tcp"]:
        assert tcp_rate + with_jitter["rla"] > floor * 200
