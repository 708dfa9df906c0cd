"""Ablation A2 — the forced-cut protection (§3.3 rule 3, footnote 7).

With pure random listening a long run of ignored congestion signals can
let cwnd grow unchecked; the forced-cut rule halves the window whenever
the last cut is older than 2 * awnd * srtt.  We compare the two variants
on a six-branch topology (pthresh = 1/6 makes ignored-signal runs long
enough for the rule to matter).
"""

from __future__ import annotations

from _scale import bench_duration, bench_warmup
from repro.experiments.sweeps import RestrictedRunSpec, run_symmetric_spec
from repro.rla.config import RLAConfig
from repro.tcp.sender import phase_jitter
from repro.topology.restricted import RestrictedSpec
from repro.units import pps_to_bps

SPEC = RestrictedSpec(mu_pps=[200] * 6)


def _run(forced: bool, duration: float, warmup: float, seed: int = 2):
    jitter = phase_jitter(SPEC.gateway, pps_to_bps(200))
    return run_symmetric_spec(RestrictedRunSpec(
        SPEC, duration=duration, warmup=warmup, seed=seed,
        rla=RLAConfig(phase_jitter=jitter, forced_cut_enabled=forced)))["rla"]


def test_forced_cut_ablation():
    duration, warmup = bench_duration(), bench_warmup()

    reports = {"on": _run(True, duration, warmup),
               "off": _run(False, duration, warmup)}
    on, off = reports["on"], reports["off"]
    print(f"\n[ablation forced-cut] on : thr {on['throughput_pps']:.1f}, "
          f"cwnd {on['mean_cwnd']:.1f}, cuts {on['window_cuts']} "
          f"(forced {on['forced_cuts']})")
    print(f"[ablation forced-cut] off: thr {off['throughput_pps']:.1f}, "
          f"cwnd {off['mean_cwnd']:.1f}, cuts {off['window_cuts']}")

    # Both variants work; footnote 7's prediction is directional: without
    # the forced cut the window only ever gets cut by the (randomized)
    # listening rule, so its average cannot be smaller by much.
    assert on["throughput_pps"] > 10
    assert off["throughput_pps"] > 10
    assert off["mean_cwnd"] >= 0.7 * on["mean_cwnd"]
    assert off["forced_cuts"] == 0
