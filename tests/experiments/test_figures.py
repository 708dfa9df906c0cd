"""Figure modules: fast analytical figures fully, sim figures as smoke."""

import pytest

from repro.experiments.fig4_drift import drift_field, render_field
from repro.experiments.fig5_density import (
    run_packet_density,
    run_particle_density,
)
from repro.experiments.figures import figure_table, run_figure
from repro.experiments.paperdata import (
    FIG7_DROPTAIL,
    FIG8_SIGNALS,
    FIG9_RED,
    FIG10_RTT,
    MULTISESSION,
)


def test_paperdata_complete():
    assert set(FIG7_DROPTAIL) == {1, 2, 3, 4, 5}
    assert set(FIG9_RED) == {1, 2, 3, 4, 5}
    assert set(FIG8_SIGNALS) == {1, 2, 3, 4, 5}
    assert set(FIG10_RTT) == {1, 2}
    for case in FIG7_DROPTAIL.values():
        assert {"rla", "wtcp", "btcp"} <= set(case)
        assert case["rla"]["forced_cut"] == 0  # the paper saw none


def test_fig4_drift_field_regions():
    gx, gy, u, v = drift_field()
    # uncongested corner grows; congested far corner shrinks
    assert u[0, 0] == pytest.approx(2.0)
    assert u[-1, -1] < 0


def test_fig4_render():
    text = render_field()
    assert "n=3" in text and "pipe=10" in text
    assert "↗" in text


def test_fig5_particle_density_centers_on_fair_point():
    trace = run_particle_density(steps=30_000, seed=2)
    assert trace.mean_w1 == pytest.approx(20.0, rel=0.5)
    assert trace.mean_w1 == pytest.approx(trace.mean_w2, rel=0.15)
    assert trace.mass_within(15.0) > 0.4


def test_fig5_packet_density_smoke():
    result = run_packet_density(n_receivers=5, duration=30.0, warmup=10.0,
                                seed=2)
    assert result.samples > 200
    assert result.mean_w1 > 1.0 and result.mean_w2 > 1.0
    grid = result.density(w_max=60)
    assert grid.sum() > 0


def test_multisession_smoke():
    results = run_figure("multisession", duration=10.0, warmup=5.0, seed=2)
    assert list(results) == [3]
    assert len(results[3].rla) == 2
    lines = figure_table("multisession", results).splitlines()
    assert [line.split(":")[0] for line in lines] == ["throughput_pps",
                                                      "mean_cwnd"]
    rates = tuple(round(r["throughput_pps"], 1) for r in results[3].rla)
    assert lines[0] == (f"throughput_pps: measured {rates}, "
                        f"paper {MULTISESSION['throughput_pps']}")


def test_tree_verdict_is_theorem_ii_against_wtcp():
    """``verdict()`` is the hand computation: session 0 over the slowest
    TCP, n = max(num_trouble, 1), drop-tail (Theorem II) on figure 7."""
    result = run_figure("fig7", duration=4.0, warmup=2.0, cases=(3,))[3]
    rla = result.rla[0]
    wtcp = min(r["throughput_pps"] for r in result.tcp.values())
    n = max(rla["num_trouble"], 1)
    verdict = result.verdict()
    assert verdict.ratio == rla["throughput_pps"] / wtcp
    assert (verdict.lower, verdict.upper) == (0.25, 2.0 * n)
    assert (verdict.n, verdict.gateway) == (n, "droptail")
    assert verdict.fair == (0.25 < verdict.ratio < 2.0 * n)
