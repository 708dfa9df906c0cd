"""Steady-state property tests for the fluid ODE backend.

The ``"fixed"`` discipline decouples the window dynamics from the queue,
so the integrator's long-run averages must land on the paper's closed
forms exactly: the TCP cohort on equation 1's PA window
``sqrt(2(1-p)/p)`` and the RLA session on the grouped common-loss
window of :func:`repro.models.rla_drift.rla_window_groups`.  The RED
tests then check the Reynier equilibrium machinery against itself and
against the integrator: the bisected fixed point satisfies the queue
balance ``A(p)(1-p) = C``, sits on the RED drop profile, and — when the
stability margin is positive — is where the integrated trajectory
actually settles.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fluid import (
    BottleneckSpec,
    FluidSpec,
    RlaCohortSpec,
    TcpCohortSpec,
    integrate,
    reynier_check,
    run_fluid,
    solve_equilibrium,
)
from repro.models.rla_drift import rla_window_groups
from repro.models.tcp_formula import MODERATE_CONGESTION_LIMIT, pa_window

# Long warmup: the slowest drift rate in the strategy ranges below is
# ~p*W/R ~ 0.33/s, so 40 s of transient leaves a relative residual
# around e^-13 — far below the 1e-4 assertion tolerance.
WARMUP = 40.0
DURATION = 20.0

probabilities = st.floats(min_value=0.005,
                          max_value=MODERATE_CONGESTION_LIMIT)
rtts = st.floats(min_value=0.02, max_value=0.3)


def _fixed_spec(p, rtt=0.1, flows=0, receivers=0):
    """One fixed-loss bottleneck with optional TCP/RLA cohorts."""
    return FluidSpec(
        name=f"fixed p={p:g}",
        bottlenecks=(BottleneckSpec(capacity_pps=10_000.0,
                                    discipline="fixed", loss_p=p),),
        tcp_cohorts=((TcpCohortSpec(flows, rtt),) if flows else ()),
        rla_cohorts=((RlaCohortSpec(receivers, rtt),) if receivers else ()),
        duration=DURATION, warmup=WARMUP,
    )


# ----------------------------------------------------------------------
# closed-form steady states under fixed loss
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None, derandomize=True)
@given(p=probabilities, rtt=rtts)
def test_tcp_steady_state_is_pa_window(p, rtt):
    result = integrate(_fixed_spec(p, rtt=rtt, flows=3))
    window = result.means["tcp_window"][0]
    assert window == pytest.approx(pa_window(p), rel=1e-4)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(p=probabilities, rtt=rtts, receivers=st.integers(1, 64))
def test_rla_steady_state_is_grouped_window(p, rtt, receivers):
    result = integrate(_fixed_spec(p, rtt=rtt, receivers=receivers))
    window = result.means["rla_window"][0]
    assert window == pytest.approx(rla_window_groups([(receivers, p)]),
                                   rel=1e-4)


def test_rla_multi_bottleneck_uses_grouped_loss_products():
    """Two trees' worth of receivers behind different fixed losses.

    The drift must multiply the *per-bottleneck* common-loss factors —
    ``rla_window_groups([(6, p1), (4, p2)])`` — not treat the ten
    receivers as independent losers.
    """
    p1, p2 = 0.01, 0.03
    spec = FluidSpec(
        name="fixed two-group",
        bottlenecks=(
            BottleneckSpec(capacity_pps=10_000.0, discipline="fixed",
                           loss_p=p1),
            BottleneckSpec(capacity_pps=10_000.0, discipline="fixed",
                           loss_p=p2),
        ),
        rla_cohorts=(RlaCohortSpec(6, 0.1, bottleneck=0),
                     RlaCohortSpec(4, 0.15, bottleneck=1)),
        duration=DURATION, warmup=WARMUP,
    )
    result = integrate(spec)
    expected = rla_window_groups([(6, p1), (4, p2)])
    assert result.means["rla_window"][0] == pytest.approx(expected,
                                                          rel=1e-4)


def test_fixed_equilibrium_report_is_closed_form():
    p = 0.02
    report = solve_equilibrium(_fixed_spec(p, flows=2, receivers=8))
    assert report.status == "interior"
    assert report.p == p
    assert report.tcp_windows[0] == pytest.approx(pa_window(p))
    assert report.rla_window == pytest.approx(rla_window_groups([(8, p)]))


# ----------------------------------------------------------------------
# RED equilibrium: Reynier condition and agreement with the integrator
# ----------------------------------------------------------------------
def _red_spec():
    """An interior, Reynier-stable RED operating point (p in (2%, 5%))."""
    return FluidSpec(
        name="red interior",
        bottlenecks=(BottleneckSpec(capacity_pps=2_000.0,
                                    buffer_pkts=100.0, discipline="red",
                                    min_th=25.0, max_th=75.0),),
        tcp_cohorts=(TcpCohortSpec(40, 0.1),),
        duration=DURATION, warmup=WARMUP,
    )


def test_red_equilibrium_satisfies_reynier_condition():
    spec = _red_spec()
    bn = spec.bottlenecks[0]
    report = reynier_check(spec)
    assert report.status == "interior"
    # Queue balance at the fixed point: accepted load equals capacity.
    assert report.arrival_pps * (1.0 - report.p) == pytest.approx(
        bn.capacity_pps, rel=1e-6)
    # The fixed point sits on RED's linear drop profile.
    profile_q = bn.min_th + (report.p / bn.max_p) * (bn.max_th - bn.min_th)
    assert report.queue == pytest.approx(profile_q, rel=1e-9)
    # Windows are the PA closed form at the equilibrium loss.
    assert report.tcp_windows[0] == pytest.approx(pa_window(report.p))
    # Reynier's stable regime: every eigenvalue in the left half-plane.
    assert report.stability_margin is not None
    assert report.stability_margin > 0.0


def test_integrator_settles_on_stable_red_equilibrium():
    spec = _red_spec()
    report = reynier_check(spec)
    assert report.stability_margin > 0.0
    result = integrate(spec)
    assert result.means["loss"][0] == pytest.approx(report.p, rel=0.05)
    assert result.means["queue"][0] == pytest.approx(report.queue,
                                                     rel=0.05)
    assert result.means["tcp_window"][0] == pytest.approx(
        report.tcp_windows[0], rel=0.05)


def test_red_profile_topping_out_at_certain_loss_has_an_equilibrium():
    """``max_p = 1`` is a valid RED profile; its top used to reach the PA
    window formula as a loss of exactly 1 and raise."""
    spec = FluidSpec(
        name="max_p 1",
        bottlenecks=(BottleneckSpec(capacity_pps=5.0, buffer_pkts=10.0,
                                    discipline="red", min_th=2.5,
                                    max_th=10.0, max_p=1.0),),
        tcp_cohorts=(TcpCohortSpec(1, 0.25),),
    )
    report = solve_equilibrium(spec)
    assert report.status == "interior" and 0.0 < report.p < 1.0


def test_droptail_equilibrium_has_one_sided_linearization():
    """Drop-tail parks the fixed point on the full-buffer boundary."""
    spec = _red_spec().replace(
        name="droptail boundary",
        bottlenecks=(BottleneckSpec(capacity_pps=2_000.0,
                                    buffer_pkts=100.0,
                                    discipline="droptail"),),
    )
    report = reynier_check(spec)
    assert report.status == "interior"
    assert report.queue == pytest.approx(spec.bottlenecks[0].buffer_pkts)
    assert report.stability_margin is None


def test_deterministic_step_count():
    """steps = round(horizon / dt): no RNG, no adaptive stepping."""
    spec = _fixed_spec(0.02, flows=1)
    result = integrate(spec)
    assert result.steps == round(spec.horizon / spec.dt)


def test_step_coarser_than_half_the_smallest_rtt_is_rejected():
    """A coarse ``dt`` used to integrate to a wrong row, silently: the
    1 ms step needs every cohort RTT to be 2 ms or more."""
    spec = _fixed_spec(0.02, rtt=2 * FluidSpec.dt, flows=1, receivers=2)
    assert integrate(spec.replace(duration=1.0, warmup=0.5)).steps == 1500
    for rtt in (0.0019, 0.001):
        with pytest.raises(ConfigurationError, match="half the smallest"):
            integrate(_fixed_spec(0.02, rtt=rtt, flows=1, receivers=2))


def test_tcp_only_population_has_no_rla_verdict():
    """Without an RLA cohort the row's ``rla_pps`` 0 is a placeholder,
    not a starved session: no Theorem I/II verdict."""
    row = run_fluid(_fixed_spec(0.02, flows=3).replace(duration=4.0,
                                                      warmup=2.0))
    assert row["rla_pps"] == 0.0 and row["wtcp_pps"] > 0
    assert row["bound_ok"] is None and "bound_lower" not in row
