"""Experiment E4 — figure 8: congestion-signal statistics per branch.

Reuses the figure 7 runs (as the paper does): for every case it compares
the congestion signals the RLA sender saw from each branch with the window
cuts of the TCP connection sharing that branch — the §3.1 claim that both
sender types see the same congestion *frequency* on drop-tail gateways
once phase effects are eliminated.
"""

from __future__ import annotations

from statistics import mean

from _scale import bench_duration, bench_warmup
from repro.experiments.fig7_droptail import run_fig7
from repro.experiments.paperdata import FIG8_SIGNALS
from repro.experiments.tables import format_signals_table
from repro.runtime import default_workers


def test_fig8_signal_statistics(run_cache):
    results = run_cache.get("fig7")
    if results is None:
        # figure 7 file deselected: the same call bench_fig7_droptail makes
        results = run_fig7(duration=bench_duration(), warmup=bench_warmup(),
                           seed=1, workers=default_workers())
        run_cache["fig7"] = results
    print("\n" + format_signals_table(
        results, paper=FIG8_SIGNALS,
        title="Figure 8 - congestion signals per branch (drop-tail runs; "
              "paper counts are over 2900 s)",
    ))

    # §3.1 shape: on the uniformly congested cases the per-branch RLA
    # signal frequency matches the TCP window-cut frequency within a
    # factor ~2 (the paper found them within ~5% over 2900 s).
    for case in (2, 3):
        rla_avg = mean(results[case].rla_signals_by_tier("more"))
        tcp_avg = mean(results[case].tcp_cuts_by_tier("more"))
        assert tcp_avg > 0
        ratio = rla_avg / tcp_avg
        print(f"case {case}: RLA signals/branch {rla_avg:.1f}, "
              f"TCP cuts {tcp_avg:.1f}, ratio {ratio:.2f}")
        assert 0.4 < ratio < 2.5

    # Case 5: congested-subtree branches see far more signals than the
    # uncongested ones (paper: 1082 vs 112).
    more = mean(results[5].rla_signals_by_tier("more"))
    less = mean(results[5].rla_signals_by_tier("less") or [0])
    assert more > 2 * less
