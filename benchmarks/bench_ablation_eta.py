"""Ablation A1 — the trouble threshold eta (§3.3 rule 6, §4.2).

eta decides which congested receivers count toward num_trouble_rcvr.  On
an unbalanced topology (one much-more-congested branch plus mildly
congested ones), a small eta shrinks the troubled set toward the single
worst receiver — raising pthresh and cutting more often (lower RLA
throughput); a large eta keeps every reporter troubled — cutting less.
The paper recommends eta = 20 as the middle ground that still protects
the Proposition's upper bound.
"""

from __future__ import annotations

from _scale import bench_duration, bench_warmup
from repro.experiments.sweeps import RestrictedRunSpec, run_symmetric_spec
from repro.rla.config import RLAConfig
from repro.tcp.sender import phase_jitter
from repro.topology.restricted import RestrictedSpec
from repro.units import pps_to_bps

#: one tight branch (share 50 pkt/s) + five mild ones (share 150 pkt/s)
SPEC = RestrictedSpec(mu_pps=[100, 300, 300, 300, 300, 300])


def _run(eta: float, duration: float, warmup: float, seed: int = 1):
    jitter = phase_jitter(SPEC.gateway, pps_to_bps(min(SPEC.mu_pps)))
    return run_symmetric_spec(RestrictedRunSpec(
        SPEC, duration=duration, warmup=warmup, seed=seed,
        rla=RLAConfig(eta=eta, phase_jitter=jitter)))["rla"]


def test_eta_sweep():
    duration, warmup = bench_duration(), bench_warmup()

    reports = {eta: _run(eta, duration, warmup) for eta in (2.0, 20.0, 100.0)}
    print("\n[ablation eta] eta -> throughput, cuts, signals, num_trouble")
    for eta, report in reports.items():
        print(f"  eta={eta:5.0f}: {report['throughput_pps']:6.1f} pkt/s, "
              f"cuts={report['window_cuts']:3d}, "
              f"signals={report['congestion_signals']:4d}, "
              f"trouble={report['num_trouble']}")

    # All variants keep the session alive and responsive.
    for report in reports.values():
        assert report["throughput_pps"] > 5
        assert report["window_cuts"] > 0
    # Monotone shape: a stricter trouble filter (small eta) never counts
    # more receivers as troubled than a looser one.
    assert (reports[2.0]["num_trouble"]
            <= reports[20.0]["num_trouble"]
            <= reports[100.0]["num_trouble"])
