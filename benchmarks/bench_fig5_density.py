"""Experiment E2 — figure 5: density of (cwnd1, cwnd2) for two sessions.

Two levels, as in DESIGN.md:

* the §4.4 Markov model at the paper's scale (n = 27, per-session fair
  cwnd 20) — fast, deterministic given the seed;
* the packet-level reproduction of footnote 11 (two RLA sessions + one
  TCP per branch, path pipe 60 packets) at benchmark scale.

The paper's claim: the probability mass concentrates around the fair
operating point (20, 20) and the sessions' mean windows are equal.
"""

from __future__ import annotations

import pytest

from _scale import bench_duration, bench_warmup
from repro.experiments.fig5_density import (
    run_packet_density,
    run_particle_density,
)


def test_fig5_particle_model():
    trace = run_particle_density(steps=200_000, seed=5)
    print(f"\n[fig5/model] mean cwnds ({trace.mean_w1:.1f}, {trace.mean_w2:.1f}) "
          f"(paper's fair point: 20, 20); mass within r=10: "
          f"{trace.mass_within(10.0):.1%}, r=15: {trace.mass_within(15.0):.1%}")
    assert trace.mean_w1 == pytest.approx(trace.mean_w2, rel=0.1)
    assert trace.mean_w1 == pytest.approx(20.0, rel=0.5)
    assert trace.mass_within(15.0) > 0.5


def test_fig5_packet_level():
    duration = max(bench_duration(), 60.0)

    result = run_packet_density(duration=duration, warmup=bench_warmup(),
                                seed=5)
    print(f"\n[fig5/packet] mean cwnds ({result.mean_w1:.1f}, "
          f"{result.mean_w2:.1f}) over {result.samples} samples "
          f"(paper: ~19.9, 20.1)")
    # equal split between the two sessions
    assert result.mean_w1 == pytest.approx(result.mean_w2, rel=0.35)
    # mass concentrated: the modal cell is near the diagonal
    grid = result.density(w_max=60)
    peak = grid.argmax()
    peak_w1, peak_w2 = divmod(peak, grid.shape[1])
    assert abs(peak_w1 - peak_w2) <= 12
