"""Drift analysis of the RLA window process (§4.2 of the paper).

This module provides closed forms and Monte-Carlo validators for:

* equation 3 — the two-receiver independent-loss PA window,
* its n-receiver generalization (derived with the same drift argument),
* the common-loss (fully correlated) PA window,
* equation 2 — the Proposition's lower/upper bounds
  ``sqrt(2(1-p_max)/p_max) < W̄ < sqrt(n) * sqrt(2(1-p_max)/p_max)``,
* the §4.2 Lemma (correlation increases the average window), checkable
  numerically.

Derivation sketch for the n-receiver independent case: per packet,
receiver ``i`` emits a congestion signal with probability ``p_i``; each
signal independently triggers a halving with probability ``1/n``.  The
window increases by ``1/W`` only when no halving fires, which happens with
probability ``prod_i (1 - p_i/n)``, and the expected multiplicative loss is
``E[1 - 2^-J] = 1 - prod_i (1 - p_i/(2n))`` where ``J`` counts halvings.
Setting positive and negative drift equal gives

    W̄² = prod_i (1 - p_i/n) / (1 - prod_i (1 - p_i/(2n)))

which reduces exactly to the paper's equation 3 for ``n = 2``.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Sequence, Tuple

from ..errors import ConfigurationError
from .tcp_formula import pa_window


def _check_probs(ps: Sequence[float]) -> None:
    if not ps:
        raise ConfigurationError("need at least one congestion probability")
    for p in ps:
        if not 0.0 < p < 1.0:
            raise ConfigurationError(f"congestion probability out of (0,1): {p}")


def rla_window_two_receivers(p1: float, p2: float) -> float:
    """Equation 3: the PA window for two receivers with independent losses."""
    _check_probs((p1, p2))
    num = 4.0 * (1.0 - 0.5 * (p1 + p2) + 0.25 * p1 * p2)
    den = p1 + p2 - 0.25 * p1 * p2
    return math.sqrt(num / den)


def rla_window_independent(ps: Sequence[float]) -> float:
    """n-receiver independent-loss PA window (reduces to eq 3 at n = 2)."""
    _check_probs(ps)
    n = len(ps)
    p_no_cut = 1.0
    p_half = 1.0
    for p in ps:
        p_no_cut *= 1.0 - p / n
        p_half *= 1.0 - p / (2.0 * n)
    return math.sqrt(p_no_cut / (1.0 - p_half))


def rla_window_groups(groups: Sequence[Tuple[int, float]]) -> float:
    """PA window for receiver groups with *common loss within a group*.

    ``groups`` is a sequence of ``(count, p)`` pairs: a group of
    ``count`` receivers behind one shared bottleneck that loses (and so
    signals) together with probability ``p``, independently of other
    groups — the loss geometry of a multicast tree, where one dropped
    copy deprives every receiver downstream of the drop.  This is
    :func:`rla_window_grouped` generalized to unequal group sizes and
    probabilities: ``(1, p)`` groups reduce it to
    :func:`rla_window_independent` and a single ``(n, p)`` group to
    :func:`rla_window_common`.  The fluid backend's RLA drift uses
    exactly these products, grouping receiver cohorts by bottleneck.
    """
    if not groups:
        raise ConfigurationError("need at least one group")
    n = 0
    for count, _ in groups:
        if count < 1:
            raise ConfigurationError(f"group count must be >= 1: {count}")
        n += count
    _check_probs([p for _, p in groups])
    p_no_cut = 1.0
    p_half = 1.0
    for count, p in groups:
        p_no_cut *= (1.0 - p) + p * (1.0 - 1.0 / n) ** count
        p_half *= (1.0 - p) + p * (1.0 - 1.0 / (2.0 * n)) ** count
    return math.sqrt(p_no_cut / (1.0 - p_half))


def rla_window_common(p: float, n: int) -> float:
    """Common-loss PA window: every loss signals all ``n`` receivers at once.

    Per packet: with probability ``p`` all n receivers signal and the cut
    count is Binomial(n, 1/n); with probability ``1 - p`` the window grows.
    """
    _check_probs((p,))
    if n < 1:
        raise ConfigurationError(f"n must be >= 1: {n}")
    no_cut_given_loss = (1.0 - 1.0 / n) ** n
    half_given_loss = (1.0 - 1.0 / (2.0 * n)) ** n
    p_grow = (1.0 - p) + p * no_cut_given_loss
    expected_loss_factor = p * (1.0 - half_given_loss)
    return math.sqrt(p_grow / expected_loss_factor)


def rla_window_grouped(p: float, group_size: int, groups: int) -> float:
    """PA window with *grouped* losses: ``groups`` independent subtrees of
    ``group_size`` receivers each lose together (case-2-style topology).

    Per packet each group signals — all its members at once — with
    probability ``p``, independently of other groups.  ``group_size = 1``
    recovers :func:`rla_window_independent` (equal probabilities) and
    ``groups = 1`` recovers :func:`rla_window_common`, so this closed form
    interpolates the §4.2 Lemma between the paper's two extremes, exactly
    the ordering the figure 7 cases 1/2/3 exhibit.
    """
    _check_probs((p,))
    if group_size < 1 or groups < 1:
        raise ConfigurationError(
            f"need positive group_size and groups: {group_size}, {groups}"
        )
    n = group_size * groups
    no_cut_one_group = (1.0 - p) + p * (1.0 - 1.0 / n) ** group_size
    half_one_group = (1.0 - p) + p * (1.0 - 1.0 / (2.0 * n)) ** group_size
    p_no_cut = no_cut_one_group ** groups
    expected_loss_factor = 1.0 - half_one_group ** groups
    return math.sqrt(p_no_cut / expected_loss_factor)


def proposition_bounds(p_max: float, n: int) -> Tuple[float, float]:
    """Equation 2: (lower, upper) bounds on the RLA PA window."""
    _check_probs((p_max,))
    if n < 1:
        raise ConfigurationError(f"n must be >= 1: {n}")
    lower = pa_window(p_max)
    return lower, math.sqrt(n) * lower


def eta_condition(p1: float) -> float:
    """§4.2's f(p1) = p1 / (2 - 1.5 p1): x >= f(p1) keeps the bound valid.

    Returns ``f(p1)``; the RLA guarantees ``x = p2/p1 >= 1/eta``, and the
    paper picks ``eta = 20`` so ``1/eta = 0.05`` clears ``f(0.05) ~= 0.026``.
    """
    _check_probs((p1,))
    return p1 / (2.0 - 1.5 * p1)


# ----------------------------------------------------------------------
# Monte-Carlo validation of the closed forms
# ----------------------------------------------------------------------
def simulate_window_chain(
    ps: Sequence[float],
    steps: int = 200_000,
    seed: int = 1,
    correlated: bool = False,
) -> float:
    """Simulate the §4.2 jump chain and return the time-average window.

    ``correlated=True`` uses the common-loss model (one coin decides all
    receivers' signals); otherwise losses are independent per receiver.
    The cut coin is ``1/n`` per signal, as in the RLA with ``n`` troubled
    receivers.  The window starts at 10 packets.
    """
    _check_probs(ps)
    if steps <= 0:
        raise ConfigurationError(f"steps must be positive: {steps}")
    rng = random.Random(seed)
    n = len(ps)
    listen = 1.0 / n
    w = 10.0
    total = 0.0
    for _ in range(steps):
        if correlated:
            signals = n if rng.random() < ps[0] else 0
        else:
            signals = sum(1 for p in ps if rng.random() < p)
        cuts = sum(1 for _ in range(signals) if rng.random() < listen)
        if cuts:
            w = max(w / (2.0 ** cuts), 1.0)
        else:
            w += 1.0 / w
        total += w
    return total / steps


def simulate_grouped_chain(
    p: float,
    group_size: int,
    groups: int,
    steps: int,
    seed: int,
) -> float:
    """Monte-Carlo twin of :func:`rla_window_grouped`; the window starts
    at 10 packets."""
    _check_probs((p,))
    if steps <= 0:
        raise ConfigurationError(f"steps must be positive: {steps}")
    if group_size < 1 or groups < 1:
        raise ConfigurationError(
            f"need positive group_size and groups: {group_size}, {groups}"
        )
    rng = random.Random(seed)
    n = group_size * groups
    listen = 1.0 / n
    w = 10.0
    total = 0.0
    for _ in range(steps):
        signals = sum(group_size for _ in range(groups) if rng.random() < p)
        cuts = sum(1 for _ in range(signals) if rng.random() < listen)
        if cuts:
            w = max(w / (2.0 ** cuts), 1.0)
        else:
            w += 1.0 / w
        total += w
    return total / steps


def lemma_correlation_gap(p: float, n: int) -> float:
    """Lemma check: common-loss window minus independent-loss window.

    Positive values confirm "a higher degree of correlation in loss ...
    results in a larger average congestion window" for equal per-receiver
    congestion probability ``p``.
    """
    return rla_window_common(p, n) - rla_window_independent([p] * n)
