"""Ablation A4 — RLA vs the rate-based baselines (LTRC, MBFC) and the
deterministic listener (§1, §3.2).

All schemes compete with one TCP connection per branch on a three-branch
restricted topology with RED gateways (the setting where [16] showed a
loss-threshold AIMD scheme is not fair to TCP).  We report each scheme's
throughput relative to the mean competing TCP throughput; the RLA should
sit closest to parity.
"""

from __future__ import annotations

import math

from _scale import bench_duration, bench_warmup
from repro.baselines.deterministic import DeterministicListenerSender
from repro.baselines.ltrc import LtrcSender
from repro.baselines.mbfc import MbfcSender
from repro.baselines.ratebase import LossReportReceiver
from repro.models.fairness import check_essential_fairness
from repro.net.addressing import group_address
from repro.rla.config import RLAConfig
from repro.rla.sender import RLASender
from repro.rla.session import RLASession
from repro.sim.engine import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.flow import TcpFlow
from repro.topology.restricted import RestrictedSpec, build_restricted

SPEC = RestrictedSpec(mu_pps=[200, 200, 200], gateway="red")


def _environment(seed: int):
    sim = Simulator(seed=seed)
    net, receivers = build_restricted(sim, SPEC)
    flows = []
    for index, receiver in enumerate(receivers):
        flow = TcpFlow(sim, net, f"tcp-{index}", "S", receiver,
                       config=TcpConfig())
        flow.start(0.1 * index)
        flows.append(flow)
    return sim, net, receivers, flows


def _measure(sim, flows, mark, report, duration, warmup):
    sim.run(until=warmup)
    mark()
    for flow in flows:
        flow.mark()
    sim.run(until=warmup + duration)
    tcp_rates = [flow.report()["throughput_pps"] for flow in flows]
    return report(), tcp_rates


def _run_window_scheme(sender_cls, duration, warmup, seed=4):
    sim, net, receivers, flows = _environment(seed)
    session = RLASession(sim, net, "mc-0", "S", receivers,
                         config=RLAConfig(), sender_cls=sender_cls)
    session.start(0.05)
    scheme_report, tcp_rates = _measure(
        sim, flows, session.mark,
        lambda: session.report()["throughput_pps"], duration, warmup,
    )
    return scheme_report, tcp_rates


def _run_rate_scheme(cls, duration, warmup, seed=4, **kwargs):
    sim, net, receivers, flows = _environment(seed)
    group = group_address("mc-0")
    net.join_group(group, "S", receivers)
    sender = cls(sim, net.node("S"), "mc-0", group, receivers,
                 initial_rate_pps=20, increase_pps=4, adjust_interval=1.0,
                 backoff_period=2.0, **kwargs)
    net.node("S").bind("mc-0", sender.on_packet)
    sinks = []
    for receiver in receivers:
        sink = LossReportReceiver(sim, net.node(receiver), "mc-0", "S")
        net.node(receiver).bind("mc-0", sink.on_packet)
        sinks.append(sink)
    sender.start(0.05)
    marker = {}

    def mark():
        sender._note_rate()
        marker["integral"] = sender.rate_integral
        marker["time"] = sim.now

    def report():
        elapsed = sim.now - marker["time"]
        return sender.mean_rate(elapsed, marker["integral"])

    return _measure(sim, flows, mark, report, duration, warmup)


def test_baseline_comparison():
    duration, warmup = bench_duration(), bench_warmup()

    results = {}
    results["RLA"] = _run_window_scheme(RLASender, duration, warmup)
    results["deterministic"] = _run_window_scheme(
        DeterministicListenerSender, duration, warmup)
    results["LTRC"] = _run_rate_scheme(LtrcSender, duration, warmup,
                                       loss_threshold=0.02)
    results["MBFC"] = _run_rate_scheme(MbfcSender, duration, warmup,
                                       loss_threshold=0.02,
                                       population_threshold=0.25)
    deviations = {}
    print("\n[baselines] scheme: throughput vs mean competing TCP")
    for name, (scheme_rate, tcp_rates) in results.items():
        mean_tcp = sum(tcp_rates) / len(tcp_rates)
        ratio = scheme_rate / mean_tcp if mean_tcp else float("inf")
        deviations[name] = abs(math.log(max(ratio, 1e-6)))
        print(f"  {name:13s}: {scheme_rate:6.1f} pkt/s vs TCP {mean_tcp:6.1f} "
              f"-> ratio {ratio:.2f}")

    rla_rate, rla_tcp = results["RLA"]
    # The RLA stays inside Theorem I against the worst TCP (RED, n = 3).
    verdict = check_essential_fairness(rla_rate, min(rla_tcp), 3, "red")
    print(f"  RLA: {verdict}")
    assert verdict and verdict.fair, verdict
    # The window-based schemes track TCP more closely than at least one of
    # the threshold-based rate controllers (the paper's §1 argument).
    assert deviations["RLA"] <= max(deviations["LTRC"], deviations["MBFC"])
