"""The grouped-loss window model (Lemma interpolation across cases 1-3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.models.rla_drift import (
    rla_window_common,
    rla_window_grouped,
    rla_window_independent,
    simulate_grouped_chain,
)

probs = st.floats(min_value=1e-3, max_value=0.05)


def test_reduces_to_independent():
    p, n = 0.02, 6
    assert rla_window_grouped(p, group_size=1, groups=n) == pytest.approx(
        rla_window_independent([p] * n), rel=1e-9
    )


def test_reduces_to_common():
    p, n = 0.02, 6
    assert rla_window_grouped(p, group_size=n, groups=1) == pytest.approx(
        rla_window_common(p, n), rel=1e-9
    )


@settings(max_examples=80, deadline=None)
@given(p=probs, groups=st.integers(1, 6), size=st.integers(1, 6))
def test_property_window_monotone_in_correlation(p, groups, size):
    """For fixed n = 12..., coarser grouping (more correlation) gives a
    larger window — the Lemma, interpolated."""
    n = 12
    divisors = [d for d in (1, 2, 3, 4, 6, 12)]
    windows = [rla_window_grouped(p, group_size=d, groups=n // d)
               for d in divisors]
    assert all(a <= b + 1e-9 for a, b in zip(windows, windows[1:]))


def test_case_ordering_matches_figure7():
    """Case 1 (one shared loss) > case 2 (9 subtree groups) > case 3
    (27 independent) in the PA window, as the paper's table shows."""
    p = 0.02
    case1 = rla_window_grouped(p, group_size=27, groups=1)
    case2 = rla_window_grouped(p, group_size=3, groups=9)
    case3 = rla_window_grouped(p, group_size=1, groups=27)
    assert case1 > case2 > case3


def test_monte_carlo_agreement():
    p, size, groups = 0.03, 3, 3
    closed = rla_window_grouped(p, size, groups)
    simulated = simulate_grouped_chain(p, size, groups, steps=250_000, seed=7)
    assert simulated == pytest.approx(closed, rel=0.15)


def test_validation():
    with pytest.raises(ConfigurationError):
        rla_window_grouped(0.0, 1, 1)
    with pytest.raises(ConfigurationError):
        rla_window_grouped(0.01, 0, 1)
    with pytest.raises(ConfigurationError):
        simulate_grouped_chain(0.01, 1, 1, steps=0, seed=1)
