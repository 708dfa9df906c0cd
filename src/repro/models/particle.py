"""The two-session Markov "particle" model of §4.4 (figures 3, 4, 5).

Two RLA senders share the same restricted topology (same receivers, same
bottlenecks, no feedback delay).  Their congestion windows ``(W1, W2)``
form a particle moving on the plane:

* while ``W1 + W2 < pipe`` nobody is congested and both windows grow by 2
  per time step (the step is ``2 RTT``, the loss-grouping interval);
* beyond a pipe boundary, every troubled receiver behind it signals, and
  each sender *independently* halves once per signal with probability
  ``1/n`` — so the cut count per sender is Binomial(#signals, 1/n).

The model yields the drift field of figure 4 and, simulated, the density
plot of figure 5 whose mass concentrates around the fair operating point
``(pipe/2, pipe/2)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:  # numpy loads only when a caller asks for an array
    import numpy as np


def binomial_pmf(n: int, p: float) -> List[float]:
    """PMF of Binomial(n, p) as a list indexed by the outcome."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"bad binomial parameters: n={n}, p={p}")
    return [math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(n + 1)]


@dataclass
class ParticleModel:
    """Two competing RLA sessions with ``n`` troubled receivers each.

    ``pipes`` lists the pipe size of each distinct bottleneck tier together
    with how many receivers sit behind it; the figure 4/5 setting is a
    single tier: ``pipes = [(pipe, n)]``.
    """

    n: int
    pipes: Sequence[Tuple[float, int]]
    growth: float = 2.0  # window growth per 2-RTT step

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1: {self.n}")
        if not self.pipes:
            raise ConfigurationError("need at least one pipe tier")
        total = sum(count for _, count in self.pipes)
        if total != self.n:
            raise ConfigurationError(
                f"pipe tier receiver counts {total} != n {self.n}"
            )
        self._sorted_pipes = sorted(self.pipes)

    @classmethod
    def uniform(cls, n: int, pipe: float) -> "ParticleModel":
        """The figure 4/5 case: all ``n`` links share one pipe size."""
        return cls(n=n, pipes=[(pipe, n)])

    # ------------------------------------------------------------------
    def signals(self, total_window: float) -> int:
        """Congestion signals per step when the sum of windows is given.

        §4.4: receivers behind ``pipe_i`` signal when the window sum
        *exceeds* the pipe size (strictly).
        """
        return sum(count for pipe, count in self._sorted_pipes if total_window > pipe)

    def cut_pmf(self, signal_count: int) -> List[float]:
        """Distribution of the per-sender halving count for one step."""
        return binomial_pmf(signal_count, 1.0 / self.n)

    def drift(self, w_own: float, w_total: float) -> float:
        """Expected one-step change of one sender's window (figure 4).

        ``2 p0 - sum_i w (1 - 2^-i) p_i`` in the congested region, where
        ``p_i`` is the probability of ``i`` halvings.
        """
        s = self.signals(w_total)
        if s == 0:
            return self.growth
        pmf = self.cut_pmf(s)
        change = self.growth * pmf[0]
        for i in range(1, s + 1):
            change -= w_own * (1.0 - 2.0 ** (-i)) * pmf[i]
        return change

    def drift_field(
        self, w_max: float, step: float = 1.0
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
        """Vector field ``(X, Y, U, V)`` over the window plane (figure 4)."""
        import numpy as np

        if w_max <= 0 or step <= 0:
            raise ConfigurationError("w_max and step must be positive")
        axis = np.arange(step, w_max + step / 2, step)
        grid_x, grid_y = np.meshgrid(axis, axis)
        u = np.empty_like(grid_x)
        v = np.empty_like(grid_y)
        for row in range(grid_x.shape[0]):
            for col in range(grid_x.shape[1]):
                w1 = float(grid_x[row, col])
                w2 = float(grid_y[row, col])
                u[row, col] = self.drift(w1, w1 + w2)
                v[row, col] = self.drift(w2, w1 + w2)
        return grid_x, grid_y, u, v

    def operating_point(self) -> Tuple[float, float]:
        """The desired fair point: the smallest pipe split equally."""
        pipe = self._sorted_pipes[0][0]
        return pipe / 2.0, pipe / 2.0

    # ------------------------------------------------------------------
    def simulate(
        self,
        steps: int = 100_000,
        seed: int = 1,
    ) -> "ParticleTrace":
        """Run the Markov chain and collect the visit density (figure 5).

        Both windows start at, and are never cut below, one packet.
        """
        if steps <= 0:
            raise ConfigurationError(f"steps must be positive: {steps}")
        rng = random.Random(seed)
        w1 = w2 = 1.0
        listen = 1.0 / self.n
        counts: Dict[Tuple[int, int], int] = {}
        sum1 = sum2 = 0.0
        for _ in range(steps):
            s = self.signals(w1 + w2)
            if s == 0:
                w1 += self.growth
                w2 += self.growth
            else:
                cuts1 = sum(1 for _ in range(s) if rng.random() < listen)
                cuts2 = sum(1 for _ in range(s) if rng.random() < listen)
                w1 = max(w1 / 2.0**cuts1, 1.0) if cuts1 else w1 + self.growth
                w2 = max(w2 / 2.0**cuts2, 1.0) if cuts2 else w2 + self.growth
            sum1 += w1
            sum2 += w2
            cell = (int(round(w1)), int(round(w2)))
            counts[cell] = counts.get(cell, 0) + 1
        return ParticleTrace(
            counts=counts, mean_w1=sum1 / steps, mean_w2=sum2 / steps, steps=steps,
            model=self,
        )


def occupancy_grid(counts: Dict[Tuple[int, int], int],
                   w_max: int) -> "np.ndarray":
    """Array of the ``(w1, w2)`` visit counts that lie in ``[0, w_max]^2``."""
    import numpy as np

    grid = np.zeros((w_max + 1, w_max + 1))
    for (w1, w2), count in counts.items():
        if 0 <= w1 <= w_max and 0 <= w2 <= w_max:
            grid[w1, w2] = count
    return grid


@dataclass
class ParticleTrace:
    """Result of a particle-model simulation."""

    counts: Dict[Tuple[int, int], int]
    mean_w1: float
    mean_w2: float
    steps: int
    model: ParticleModel = field(repr=False)

    def density(self, w_max: int) -> "np.ndarray":
        """Occupancy histogram over ``[0, w_max] x [0, w_max]`` (figure 5)."""
        return occupancy_grid(self.counts, w_max)

    def mass_within(self, radius: float) -> float:
        """Fraction of time spent within ``radius`` of the fair point."""
        cx, cy = self.model.operating_point()
        inside = sum(
            count
            for (w1, w2), count in self.counts.items()
            if (w1 - cx) ** 2 + (w2 - cy) ** 2 <= radius**2
        )
        return inside / self.steps
