"""Fairness definitions and theorem bounds (§2, §4)."""

import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.models import fairness as fm

_allocs = st.lists(st.floats(min_value=0.0, max_value=1e6,
                             allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=12)


def test_soft_bottleneck_picks_min_share():
    # shares: 100/2=50, 300/4=75, 60/1=60 -> branch 0
    assert fm.soft_bottleneck([100, 300, 60], [1, 3, 0]) == 0
    assert fm.soft_bottleneck_share([100, 300, 60], [1, 3, 0]) == 50


def test_soft_bottleneck_zero_tcp():
    assert fm.soft_bottleneck([100], [0]) == 0
    assert fm.soft_bottleneck_share([100], [0]) == 100


def test_soft_bottleneck_validation():
    with pytest.raises(ConfigurationError):
        fm.soft_bottleneck([], [])
    with pytest.raises(ConfigurationError):
        fm.soft_bottleneck([1.0], [1, 2])


def test_theorem1_bounds():
    a, b = fm.essential_fairness_bounds(27, fm.RED)
    assert a == pytest.approx(1 / 3)
    assert b == pytest.approx(math.sqrt(81))


def test_theorem2_bounds():
    a, b = fm.essential_fairness_bounds(27, fm.DROPTAIL)
    assert a == 0.25
    assert b == 54


def test_bounds_validation():
    with pytest.raises(ConfigurationError):
        fm.essential_fairness_bounds(0, fm.RED)
    with pytest.raises(ConfigurationError):
        fm.essential_fairness_bounds(5, "fifo")


def test_window_ratio_bounds_eq4():
    lower, upper = fm.window_ratio_bounds(3)
    assert lower == pytest.approx(2 / 3)
    assert upper == pytest.approx(3.0)


def test_rtt_ratio_bounds_eq5():
    assert fm.rtt_ratio_bounds() == (1.0, 2.0)


def test_check_essential_fairness_inside():
    verdict = fm.check_essential_fairness(120, 100, 27, fm.DROPTAIL)
    assert verdict.fair
    assert verdict.ratio == pytest.approx(1.2)
    assert "ESSENTIALLY FAIR" in str(verdict)


def test_check_essential_fairness_outside():
    verdict = fm.check_essential_fairness(10, 100, 27, fm.RED)
    assert not verdict.fair
    assert "OUT OF BOUNDS" in str(verdict)


def test_check_rejects_nonpositive():
    """A zero WTCP or a NaN rate has no ratio to bound: no verdict, not a
    raise.  A starved RLA has ratio 0 and fails the lower bound."""
    assert fm.check_essential_fairness(100, 0.0, 27, fm.DROPTAIL) is None
    assert fm.check_essential_fairness(0, 0, 27, fm.RED) is None
    assert fm.check_essential_fairness(math.nan, 100, 27, fm.RED) is None
    assert fm.check_essential_fairness(100, math.nan, 27, fm.RED) is None
    starved = fm.check_essential_fairness(0, 100, 27, fm.RED)
    assert (starved.ratio, starved.fair) == (0.0, False)
    with pytest.raises(ConfigurationError):  # an unknown gateway still raises
        fm.check_essential_fairness(0, 100, 27, "fifo")


def test_fairness_columns_take_bounds_from_the_verdict():
    assert fm.fairness_columns(120, 100, 3, fm.RED) == {
        "ratio": 1.2, "fair": True, "lower": 1 / 3, "upper": 3.0}
    columns = fm.fairness_columns(120, 0.0, 3, fm.DROPTAIL)
    assert math.isnan(columns.pop("ratio"))
    assert columns == {"fair": None, "lower": 0.25, "upper": 6.0}


def test_theorem_map_covers_every_gateway_discipline():
    """Drop-tail is Theorem II; every other discipline the packet stack
    builds is judged by Theorem I."""
    from repro.net.network import GATEWAY_DISCIPLINES

    assert {fm.DROPTAIL, *fm.THEOREM_I} == set(GATEWAY_DISCIPLINES)
    for gateway in fm.THEOREM_I:
        assert fm.essential_fairness_bounds(27, gateway) == \
            fm.essential_fairness_bounds(27, fm.RED)


def test_bound_columns():
    assert fm.bound_columns(None) == {"bound_ok": None}
    verdict = fm.check_essential_fairness(120, 100, 3, fm.RED)
    assert fm.bound_columns(verdict) == {
        "bound_ok": True, "bound_lower": 1 / 3, "bound_upper": 3.0}


def test_absolute_fairness_special_case():
    # a = b = 1: throughput at the soft-bottleneck share
    assert fm.is_absolutely_fair(100, [200, 400], [1, 1], tolerance=0.05)
    assert not fm.is_absolutely_fair(150, [200, 400], [1, 1], tolerance=0.05)


# ------------------------------------------------------- jain properties
@settings(max_examples=100, deadline=None)
@given(values=_allocs)
def test_jain_property_stays_in_range(values):
    """1/n <= jain <= 1 for every non-negative allocation."""
    index = fm.jain_index(values)
    assert 1.0 / len(values) <= index <= 1.0


def test_jain_quotient_rounding_is_clamped_into_range():
    """Allocations whose quotient rounds one ulp outside ``[1/n, 1]`` (the
    first is a draw that failed the property above, unseeded)."""
    assert fm.jain_index([0, 0, 0, 0, 90.85134364244112]) == 1.0 / 5
    assert fm.jain_index_weighted([0.0, 49.54350870919409], [4, 1]) == 1.0 / 5
    assert fm.jain_index([65.15929727227629] * 3) == 1.0


def test_jain_is_scale_free_where_squares_would_underflow():
    """A draw that failed the scale-invariance property below, unseeded:
    the tiny pair scored 1.0 (squares underflowed to 0), its double 0.5."""
    tiny = [0.0, 9.092697216781956e-163]
    assert fm.jain_index(tiny) == fm.jain_index([2 * v for v in tiny]) == 0.5
    assert fm.jain_index_weighted(tiny, [1, 1]) == 0.5
    assert fm.jain_index([5e-324] * 3) == 1.0


@settings(max_examples=100, deadline=None)
@given(values=_allocs,
       scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_jain_property_scale_invariant(values, scale):
    """Multiplying every allocation by a constant changes nothing.

    Unless the multiplication itself loses the allocation: a product
    below the smallest normal float keeps only a few bits (``[0.0,
    5e-324]`` times 0.5 is ``[0.0, 0.0]``), so no index could agree.
    """
    assume(all(v == 0 or v * scale >= sys.float_info.min for v in values))
    index = fm.jain_index(values)
    scaled = fm.jain_index([v * scale for v in values])
    assert scaled == pytest.approx(index, rel=1e-6, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 20),
       value=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
def test_jain_property_equal_allocations_score_one(n, value):
    assert fm.jain_index([value] * n) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 20))
def test_jain_property_monopolist_hits_lower_bound(n):
    """One flow taking everything scores exactly 1/n."""
    assert fm.jain_index([7.5] + [0.0] * (n - 1)) == pytest.approx(1.0 / n)


@settings(max_examples=100, deadline=None)
@given(fast=_allocs, slow=_allocs)
def test_jain_property_cohort_partitioning(fast, slow):
    """Pooled fairness never exceeds the best cohort's internal fairness.

    This is the soundness property behind the per-cohort columns: when
    each RTT cohort is internally fair but the cohorts' means differ, the
    unfairness must show up in the pooled index, never be hidden by it.
    """
    pooled = fm.jain_index(fast + slow)
    best = max(fm.jain_index(fast), fm.jain_index(slow))
    assert pooled <= best + 1e-9


def test_jain_cohort_partition_example():
    # Two internally-equal cohorts, 4x apart: pooled index is penalized.
    assert fm.jain_index([4.0, 4.0]) == 1.0
    assert fm.jain_index([1.0, 1.0]) == 1.0
    pooled = fm.jain_index([4.0, 4.0, 1.0, 1.0])
    assert pooled == pytest.approx(25.0 / 34.0)
