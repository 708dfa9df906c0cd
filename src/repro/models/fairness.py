"""Fairness definitions and theorem bounds (§2 and §4 of the paper).

Implements the paper's three key concepts on the restricted topology:

* the **soft bottleneck** — the branch minimizing ``mu_i / (m_i + 1)``;
* **absolute fairness** — multicast throughput equal to the soft
  bottleneck's equal share;
* **essential fairness** — ``a * lambda_TCP < lambda_RLA < b * lambda_TCP``
  with Theorem I giving ``(a, b) = (1/3, sqrt(3 n))`` for RED gateways and
  Theorem II giving ``(a, b) = (1/4, 2 n)`` for drop-tail gateways with
  phase effects eliminated.

:func:`check_essential_fairness` is the one place throughputs become a
Theorem I/II verdict: the tree figures, the sweeps (packet and fluid),
the scenario cohorts, the fluid rows and the fluid-vs-packet crossval
all call it, so every backend is judged by the same rule.  It is usable
on measurements of *any* multicast scheme — the paper offers essential
fairness as a yardstick for comparing algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import ConfigurationError

RED = "red"
DROPTAIL = "droptail"

#: Gateway disciplines judged by Theorem I.  Every AQM shares RED's
#: uniform-loss-probability property the theorem needs; only drop-tail
#: (Theorem II) lacks it.
THEOREM_I = ("red", "red-byte", "red-adaptive", "codel", "pie")


def soft_bottleneck(mu: Sequence[float], m: Sequence[int]) -> int:
    """Index of the soft bottleneck branch: argmin ``mu_i / (m_i + 1)``."""
    if len(mu) != len(m) or not mu:
        raise ConfigurationError("mu and m must be equal-length, non-empty")
    shares = [capacity / (tcp_count + 1) for capacity, tcp_count in zip(mu, m)]
    return min(range(len(shares)), key=shares.__getitem__)


def soft_bottleneck_share(mu: Sequence[float], m: Sequence[int]) -> float:
    """The equal share ``min_i mu_i / (m_i + 1)`` on the soft bottleneck."""
    index = soft_bottleneck(mu, m)
    return mu[index] / (m[index] + 1)


#: Below this an allocation's square underflows; the index is scale-free,
#: so such allocations are divided by their peak first (others are not:
#: every index ever reported keeps its bits).
_TINY = 1e-150


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    The quantitative fairness measure of Jain, Chiu & Hawe: 1.0 when all
    allocations are equal, approaching ``1/n`` as one allocation takes
    everything.  Used by the scenario suite to score how evenly the RLA
    session and its competing TCP flows share a generated topology.

    All values must be non-negative; an all-zero allocation is perfectly
    equal, so it scores 1.0.
    """
    xs = [float(v) for v in values]
    if not xs:
        raise ConfigurationError("jain_index needs at least one allocation")
    if any(v < 0 for v in xs):
        raise ConfigurationError(f"negative allocation in {xs!r}")
    peak = max(xs)
    if peak == 0.0:
        return 1.0  # all-zero is perfectly equal
    if peak < _TINY:
        xs = [v / peak for v in xs]
    total = sum(xs)
    squares = sum(v * v for v in xs)
    # The quotient lies in [1/n, 1] exactly; its rounding can step one ulp
    # outside ([0, 0, 0, 0, 90.85134364244112] gives 0.19999999999999998).
    return min(1.0, max(1.0 / len(xs), (total * total) / (len(xs) * squares)))


def jain_index_weighted(
    values: Sequence[float], weights: Sequence[int]
) -> float:
    """Jain's index over a population given as ``(value, multiplicity)``.

    Equivalent to :func:`jain_index` on the expanded list where
    ``values[i]`` appears ``weights[i]`` times, but costs O(cohorts)
    instead of O(population) — how the fluid backend scores 10⁶ flows
    held in a handful of cohorts.
    """
    if len(values) != len(weights) or not values:
        raise ConfigurationError(
            "values and weights must be equal-length, non-empty"
        )
    xs = [float(v) for v in values]
    if any(v < 0 for v in xs):
        raise ConfigurationError(f"negative allocation in {xs!r}")
    for w in weights:
        if w < 1:
            raise ConfigurationError(f"multiplicity must be >= 1: {w}")
    peak = max(xs)
    if peak == 0.0:
        return 1.0  # same convention as jain_index
    if peak < _TINY:
        xs = [v / peak for v in xs]
    population = sum(weights)
    total = sum(w * v for w, v in zip(weights, xs))
    squares = sum(w * v * v for w, v in zip(weights, xs))
    return min(1.0, max(1.0 / population,
                        (total * total) / (population * squares)))


def essential_fairness_bounds(n: int, gateway: str) -> Tuple[float, float]:
    """Theorem I/II factors ``(a, b)`` for ``n`` troubled receivers.

    Drop-tail gets Theorem II; every discipline in :data:`THEOREM_I`
    gets Theorem I.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1: {n}")
    if gateway in THEOREM_I:
        return 1.0 / 3.0, math.sqrt(3.0 * n)
    if gateway == DROPTAIL:
        return 0.25, 2.0 * n
    raise ConfigurationError(f"unknown gateway type: {gateway!r}")


def window_ratio_bounds(n: int) -> Tuple[float, float]:
    """Equation 4 factors: ``2/3 < W_RLA / W_TCP < sqrt(3 n)`` (RED case)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1: {n}")
    return 2.0 / 3.0, math.sqrt(3.0 * n)


def rtt_ratio_bounds() -> Tuple[float, float]:
    """Equation 5: ``RTT < RTT_RLA < 2 RTT`` on the restricted topology."""
    return 1.0, 2.0


@dataclass
class FairnessVerdict:
    """Outcome of an essential-fairness check on one measurement."""

    ratio: float          # lambda_RLA / lambda_TCP on the soft bottleneck
    lower: float          # a
    upper: float          # b
    fair: bool            # a < ratio < b
    gateway: str
    n: int

    def __str__(self) -> str:
        status = "ESSENTIALLY FAIR" if self.fair else "OUT OF BOUNDS"
        return (
            f"{status}: ratio={self.ratio:.3f} within ({self.lower:.3f}, "
            f"{self.upper:.3f}) for n={self.n} ({self.gateway})"
        )


def check_essential_fairness(
    lambda_rla: float,
    lambda_tcp: float,
    n: int,
    gateway: str,
) -> Optional[FairnessVerdict]:
    """Check the Theorem I/II inequality on measured throughputs.

    ``lambda_tcp`` must be the competing TCP throughput on the *soft
    bottleneck* branch (the paper's WTCP row).  Returns ``None`` — no
    verdict — when ``lambda_tcp`` is not positive (a ratio over zero is
    undefined) or either rate is NaN.  A starved RLA (``lambda_rla ==
    0``) is judged: ratio 0, below every lower bound, so not fair.
    """
    lower, upper = essential_fairness_bounds(n, gateway)
    if not (lambda_tcp > 0 and lambda_rla >= 0):
        return None
    ratio = lambda_rla / lambda_tcp
    return FairnessVerdict(
        ratio=ratio,
        lower=lower,
        upper=upper,
        fair=lower < ratio < upper,
        gateway=gateway,
        n=n,
    )


def bound_columns(verdict: Optional[FairnessVerdict]) -> Dict[str, Any]:
    """A fluid or cohort row's ``bound_ok`` column, plus ``bound_lower``
    and ``bound_upper`` when there is a verdict."""
    if verdict is None:
        return {"bound_ok": None}
    return {"bound_ok": verdict.fair, "bound_lower": verdict.lower,
            "bound_upper": verdict.upper}


def fairness_columns(lambda_rla: float, lambda_tcp: float, n: int,
                     gateway: str) -> Dict[str, Any]:
    """A sweep row's ``ratio``/``fair``/``lower``/``upper``: the verdict of
    :func:`check_essential_fairness`, or ``ratio`` NaN and ``fair`` None
    when it gives none (the bounds are reported either way)."""
    verdict = check_essential_fairness(lambda_rla, lambda_tcp, n, gateway)
    if verdict is None:
        lower, upper = essential_fairness_bounds(n, gateway)
        return {"ratio": math.nan, "fair": None, "lower": lower,
                "upper": upper}
    return {"ratio": verdict.ratio, "fair": verdict.fair,
            "lower": verdict.lower, "upper": verdict.upper}


def is_absolutely_fair(
    lambda_rla: float,
    mu: Sequence[float],
    m: Sequence[int],
    tolerance: float = 0.2,
) -> bool:
    """True if the multicast throughput sits at the soft-bottleneck share.

    ``tolerance`` is the acceptable relative deviation; absolute fairness
    is essential fairness with ``a = b = 1``, impossible to hit exactly in
    finite measurements.
    """
    share = soft_bottleneck_share(mu, m)
    return abs(lambda_rla - share) <= tolerance * share
