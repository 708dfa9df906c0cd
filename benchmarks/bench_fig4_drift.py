"""Experiment E1 — figure 4: drift diagram of two competing cwnds.

Analytical: evaluates the §4.4 particle model at the paper's setting
(n = 3, pipe = 10) and checks the qualitative structure the figure shows —
diagonal growth below the pipe boundary, a pull back toward the fair
operating point (5, 5) beyond it.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.fig4_drift import PAPER_N, PAPER_PIPE, drift_field, render_field


def test_fig4_drift_field():
    gx, gy, u, v = drift_field(PAPER_N, PAPER_PIPE, 12.0, 1.0)
    print("\n" + render_field())

    # Region 1: uncongested (w1 + w2 <= pipe) -> both components grow by +2.
    uncongested = gx + gy <= PAPER_PIPE
    assert np.all(u[uncongested] == 2.0)
    assert np.all(v[uncongested] == 2.0)

    # Region 2: deep congestion -> the larger window is pulled down.
    deep = (gx + gy > PAPER_PIPE) & (gx >= 8)
    assert np.all(u[deep] < 0)

    # Symmetry: the model treats the two sessions identically.
    assert np.allclose(u, v.T)

    # The fair point's neighbourhood is where drift changes sign along the
    # diagonal: just below the boundary it grows, just above it shrinks
    # for windows larger than their fair share.
    assert u[4, 4] == 2.0          # (5, 5): still uncongested side
    assert u[6, 6] < 2.0           # (7, 7): congested, damped or negative
