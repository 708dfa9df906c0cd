"""Experiment E6 — figure 10: different round-trip times, generalized RLA.

36 receivers (27 leaves at ~230 ms RTT, 9 level-3 gateways at ~30 ms),
listening probability scaled by (srtt_i / srtt_max)^2 (§5.3).  The paper
reports the generalized RLA obtaining roughly twice the WTCP throughput
in both cases while no TCP is shut out.
"""

from __future__ import annotations

from _scale import bench_duration, bench_warmup
from repro.experiments.fig10_rtt import run_fig10
from repro.experiments.paperdata import FIG10_RTT
from repro.experiments.tables import format_case_table
from repro.runtime import default_workers


def test_fig10_different_rtts(run_cache):
    results = run_fig10(duration=bench_duration(), warmup=bench_warmup(),
                        seed=1, workers=default_workers())
    run_cache["fig10"] = results
    print("\n" + format_case_table(
        results, paper=FIG10_RTT,
        title=(f"Figure 10 (different RTTs, generalized RLA), "
               f"duration={bench_duration():.0f}s warmup={bench_warmup():.0f}s"),
    ))

    for case, result in results.items():
        rla = result.rla[0]
        wtcp = result.wtcp["throughput_pps"]
        ratio = rla["throughput_pps"] / wtcp if wtcp > 0 else float("inf")
        print(f"case {case}: RLA/WTCP ratio {ratio:.2f} "
              f"(paper: {FIG10_RTT[case]['rla']['thrput'] / FIG10_RTT[case]['wtcp']['thrput']:.2f})")
        # "reasonable share": nobody shut out, RLA within a wide bound
        assert result.wtcp["throughput_pps"] > 5.0
        assert rla["throughput_pps"] > 0.25 * wtcp
        assert rla["throughput_pps"] < 2 * 36 * wtcp
        # the generalized RLA really ran with RTT scaling
        assert result.spec.resolved_generalized()
