"""Extension benchmark: ECN marking versus dropping under RED.

Not a paper figure (the paper predates deployable ECN by a year) but the
natural follow-on its RED analysis invites: if the gateway *marks*
instead of dropping, the congestion-frequency equalization argument of
Theorem I applies unchanged while the loss-repair traffic disappears.
We run the same RLA + per-branch-TCP scenario with RED in drop mode and
in mark mode and compare fairness and repair volume.
"""

from __future__ import annotations

from _scale import bench_duration, bench_warmup
from repro.experiments.sweeps import RestrictedRunSpec, run_symmetric_spec
from repro.models.fairness import check_essential_fairness
from repro.topology.restricted import RestrictedSpec


def _run(mark: bool, duration: float, warmup: float, seed: int = 8):
    topology = RestrictedSpec(mu_pps=[200] * 3, gateway="red", ecn=mark)
    row = run_symmetric_spec(RestrictedRunSpec(
        topology, duration=duration, warmup=warmup, seed=seed))
    rla = row["rla"]
    return {
        "rla_pps": row["rla_pps"],
        "repairs": rla["rtx_multicast"] + rla["rtx_unicast"],
        "signals": row["signals"],
        "cuts": row["window_cuts"],
        "tcp_min": row["wtcp_pps"],
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