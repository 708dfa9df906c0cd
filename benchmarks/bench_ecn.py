"""Extension benchmark: ECN marking versus dropping under RED.

Not a paper figure (the paper predates deployable ECN by a year) but the
natural follow-on its RED analysis invites: if the gateway *marks*
instead of dropping, the congestion-frequency equalization argument of
Theorem I applies unchanged while the loss-repair traffic disappears.
We run the same RLA + per-branch-TCP scenario with RED in drop mode and
in mark mode and compare fairness and repair volume.
"""

from __future__ import annotations

import pytest

from _scale import bench_duration, bench_warmup
from repro.models.fairness import check_essential_fairness
from repro.net.network import Network, red_factory
from repro.rla.config import RLAConfig
from repro.rla.session import RLASession
from repro.sim.engine import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.flow import TcpFlow
from repro.units import mbps, ms, pps_to_bps


def _run(mark: bool, duration: float, warmup: float, seed: int = 8):
    sim = Simulator(seed=seed)
    net = Network(sim)
    factory = red_factory(sim, mark_ecn=mark)
    net.add_link("S", "G", mbps(100), ms(5))
    receivers = ["R1", "R2", "R3"]
    for receiver in receivers:
        net.add_link("G", receiver, pps_to_bps(200), ms(50),
                     queue_factory=factory)
    net.build_routes()
    flows = []
    for index, receiver in enumerate(receivers):
        flow = TcpFlow(sim, net, f"tcp-{index}", "S", receiver,
                       config=TcpConfig(ecn=mark))
        flow.start(0.1 * index)
        flows.append(flow)
    session = RLASession(sim, net, "rla-0", "S", receivers,
                         config=RLAConfig(ecn=mark))
    session.start(0.05)
    sim.run(until=warmup)
    session.mark()
    for flow in flows:
        flow.mark()
    sim.run(until=warmup + duration)
    rla = session.report()
    tcp_rates = [flow.report()["throughput_pps"] for flow in flows]
    return {
        "rla_pps": rla["throughput_pps"],
        "repairs": rla["rtx_multicast"] + rla["rtx_unicast"],
        "signals": rla["congestion_signals"],
        "cuts": rla["window_cuts"],
        "tcp_min": min(tcp_rates),
        "tcp_rates": tcp_rates,
    }


def test_ecn_marking_vs_dropping():
    duration, warmup = bench_duration(), bench_warmup()

    results = {"drop": _run(False, duration, warmup),
               "mark": _run(True, duration, warmup)}
    for label, result in results.items():
        print(f"\n[ecn] {label:4s}: RLA {result['rla_pps']:6.1f} pkt/s "
              f"(cuts {result['cuts']}, repairs {result['repairs']}), "
              f"worst TCP {result['tcp_min']:6.1f}")

    drop, mark = results["drop"], results["mark"]
    # fairness holds in both modes (Theorem I, n = 3)
    for label, result in results.items():
        verdict = check_essential_fairness(result["rla_pps"],
                                           result["tcp_min"], 3, "red")
        assert verdict and verdict.fair, f"{label}: {verdict}"
    # marking keeps the control loop active but removes most repair work
    assert mark["signals"] > 0
    assert mark["repairs"] < max(drop["repairs"], 1)