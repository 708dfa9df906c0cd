"""Experiment E1 — figure 4: average drift diagram of two competing cwnds.

Purely analytical: evaluates the §4.4 particle-model drift at every grid
point for the paper's setting ``n = 3``, ``pipe = 10``.  The rendered
ASCII field shows the uncongested diagonal growth region and the
congested region's pull toward the fair operating point (5, 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..models.particle import ParticleModel

if TYPE_CHECKING:  # numpy loads only when a caller asks for an array
    import numpy as np

PAPER_N = 3
PAPER_PIPE = 10.0


def drift_field(
    n: int = PAPER_N, pipe: float = PAPER_PIPE, w_max: float = 12.0, step: float = 1.0
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """The (X, Y, U, V) drift field of figure 4."""
    return ParticleModel.uniform(n, pipe).drift_field(w_max, step)


def render_field() -> str:
    """ASCII rendering of the paper's field: one arrow glyph per grid point."""
    n, pipe = PAPER_N, PAPER_PIPE
    grid_x, grid_y, u, v = drift_field(n, pipe)
    glyphs = []
    for row in range(grid_x.shape[0] - 1, -1, -1):  # y decreasing downward
        line = []
        for col in range(grid_x.shape[1]):
            du, dv = u[row, col], v[row, col]
            line.append(_arrow(du, dv))
        glyphs.append(f"w2={grid_y[row, 0]:>4.0f} " + " ".join(line))
    glyphs.append("      " + " ".join(f"{grid_x[0, col]:.0f}".rjust(1)
                                      for col in range(grid_x.shape[1])))
    header = f"Figure 4 - drift field, n={n}, pipe={pipe:.0f} (fair point at {pipe/2:.0f},{pipe/2:.0f})"
    return header + "\n" + "\n".join(glyphs)


def _arrow(du: float, dv: float) -> str:
    eps = 1e-9
    if du > eps and dv > eps:
        return "↗"  # growing together (uncongested)
    if du < -eps and dv < -eps:
        return "↙"  # both being pushed down
    if du < -eps:
        return "←"
    if dv < -eps:
        return "↓"
    return "·"
