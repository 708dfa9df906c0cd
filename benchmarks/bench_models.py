"""Experiment E8 — validate the §4 closed forms by Monte Carlo.

Regenerates the analytical backbone of the paper: equation 1 (PA window),
equation 3 (two-receiver RLA window), the n-receiver Proposition bounds
(equation 2) and the correlation Lemma, each checked against a simulation
of the exact window jump chain the proofs analyse.
"""

from __future__ import annotations

import pytest

from repro.models.rla_drift import (
    lemma_correlation_gap,
    proposition_bounds,
    rla_window_common,
    rla_window_independent,
    rla_window_two_receivers,
    simulate_window_chain,
)
from repro.models.tcp_formula import pa_window

STEPS = 400_000


def test_equation1_monte_carlo():
    """TCP's PA window: chain simulation vs sqrt(2(1-p)/p)."""
    p = 0.01
    simulated = simulate_window_chain([p], STEPS, 11)
    closed = pa_window(p)
    print(f"\n[eq 1] p={p}: simulated W={simulated:.2f}, closed form {closed:.2f}")
    assert simulated == pytest.approx(closed, rel=0.15)


def test_equation3_monte_carlo():
    """Two-receiver RLA window (eq 3) vs the jump chain."""
    p1, p2 = 0.02, 0.01
    simulated = simulate_window_chain([p1, p2], STEPS, 12)
    closed = rla_window_two_receivers(p1, p2)
    print(f"\n[eq 3] p=({p1},{p2}): simulated W={simulated:.2f}, "
          f"closed form {closed:.2f}")
    assert simulated == pytest.approx(closed, rel=0.15)


def test_proposition_bounds_sweep():
    """Equation 2 bounds hold across n for the simulated chain."""
    print("\n[eq 2] n: lower < simulated W < upper")
    for n in (2, 4, 8, 16, 27):
        p = 0.02
        w = simulate_window_chain([p] * n, steps=100_000, seed=n)
        lower, upper = proposition_bounds(p, n)
        print(f"  n={n:2d}: {lower:6.2f} < {w:6.2f} < {upper:6.2f}")
        assert lower < w < upper


def test_lemma_correlation():
    """§4.2 Lemma: correlated losses give a larger average window."""
    p, n = 0.02, 9
    independent = simulate_window_chain([p] * n, steps=150_000, seed=21)
    common = simulate_window_chain([p] * n, steps=150_000, seed=21,
                                   correlated=True)
    closed_gap = lemma_correlation_gap(0.02, 9)
    print(f"\n[Lemma] independent W={independent:.2f}, common W={common:.2f}, "
          f"closed-form gap {closed_gap:.2f}")
    assert common > independent
    assert rla_window_common(0.02, 9) > rla_window_independent([0.02] * 9)
