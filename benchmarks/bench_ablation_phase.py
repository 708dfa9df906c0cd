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
from repro.experiments.sweeps import RestrictedRunSpec, run_symmetric_spec
from repro.models.fairness import check_essential_fairness
from repro.rla.config import RLAConfig
from repro.tcp.config import TcpConfig
from repro.topology.restricted import RestrictedSpec

SPEC = RestrictedSpec(mu_pps=[200, 200, 200])


def _run(jitter_on: bool, duration: float, warmup: float, seed: int = 3):
    # the paper's endpoints (None) jitter on drop-tail; bare configs do not
    rla, tcp = (None, None) if jitter_on else (RLAConfig(), TcpConfig())
    row = run_symmetric_spec(RestrictedRunSpec(
        SPEC, duration=duration, warmup=warmup, seed=seed, rla=rla, tcp=tcp))
    tcp_rates = [report["throughput_pps"] for report in row["tcp"]]
    return {
        "rla": row["rla_pps"],
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
