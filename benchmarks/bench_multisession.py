"""Experiment E7 — §5.2: two overlapping multicast sessions share equally.

Two RLA sessions from the same sender to the same 27 receivers on the
case-3 topology, plus the background TCPs.  The paper reports 65.1 vs
65.9 pkt/s and mean windows 19.9 vs 20.1 — near-perfect multicast
fairness, the §4.4 theory at packet level.
"""

from __future__ import annotations

from _scale import bench_duration, bench_warmup
from repro.experiments.figures import figure_table, run_figure


def test_two_sessions_share_equally():
    results = run_figure("multisession", duration=bench_duration(),
                         warmup=bench_warmup(), seed=1)
    print("\n" + figure_table("multisession", results))
    result = results[3]

    rates = [r["throughput_pps"] for r in result.rla]
    windows = [r["mean_cwnd"] for r in result.rla]
    assert min(rates) > 0
    # equality of the two sessions (the paper's point)
    assert min(rates) / max(rates) > 0.55
    assert min(windows) / max(windows) > 0.6
    # combined, the two sessions take roughly the share one session plus
    # one TCP-equivalent would: each branch serves 2 RLA + 1 TCP at a
    # 200 pkt/s bottleneck, so the pair of sessions together stay under it.
    assert sum(rates) < 220
