"""Equilibrium solver and Reynier-style stability diagnostic.

Reynier's companion result to the mean-field limit (``cs/0609014``) is a
*simple stability condition* for many TCP flows through a RED buffer:
the deterministic limit has a unique fixed point, and whether the
populations settle there or orbit it in a limit cycle is decided by the
linearization around that fixed point.  This module implements that
check constructively for a single-bottleneck :class:`FluidSpec`:

1. solve the fixed point exactly — windows from the closed forms of
   :mod:`repro.models` (which *are* the ODE equilibria by construction),
   the queue from inverting the drop profile, and the residual
   ``A(p) (1-p) - C`` bisected over the drop probability, ``A(p)`` the
   kernel's ``arrival`` observable at those windows and that queue (the
   residual is strictly decreasing in ``p``: higher loss shrinks every
   window and, through the queue, stretches every RTT);
2. linearize :meth:`FluidModel.derivatives` at the fixed point by
   central finite differences and report the **stability margin**
   ``-max Re(eig(J))`` — positive means locally asymptotically stable,
   negative flags the oscillatory regime Reynier's condition excludes.
   The Jacobian is (cohorts + 3)², so its spectrum comes from the
   in-tree :func:`eigenvalues` (balance, Hessenberg, shifted complex
   QR) and no array library is loaded for it.

Both the equilibrium and the margin are surfaced in fluid report rows
as a diagnostic, so a sweep can tell at a glance when a RED operating
point has left the stable region (where the time averages are still
well-defined but no longer sit on the fixed point).
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError
from ..models.rla_drift import rla_window_groups
from ..models.tcp_formula import pa_window
from .model import FluidModel, model_of
from .spec import FluidSpec

#: Bisection iterations for the equilibrium drop probability.  Fixed
#: (not tolerance-driven) so the solve is deterministic bit-for-bit.
BISECT_ITERATIONS = 200

#: Smallest drop probability the bracket considers.
P_FLOOR = 1e-12

#: A subdiagonal entry this small relative to its diagonal neighbours
#: is zero, and the matrix deflates.
EPSILON = sys.float_info.epsilon

#: QR sweeps allowed per eigenvalue; LAPACK's budget is 30.
MAX_SWEEPS = 60


@dataclass
class EquilibriumReport:
    """Fixed point of a single-bottleneck fluid system, plus its margin.

    ``status`` is ``"interior"`` (a genuine fixed point on the drop
    profile), ``"lossless"`` (demand never fills the queue; ``p = 0``),
    or ``"saturated"`` (demand exceeds capacity even at the top of the
    drop profile; RED operates on its ``max_th`` cliff).
    ``stability_margin`` is ``-max Re(eig(J))`` at the fixed point —
    positive for locally stable — and ``None`` when the fixed point
    sits on a state-space boundary (drop-tail's full buffer) where the
    linearization is one-sided.
    """

    status: str
    p: float
    queue: float
    tcp_windows: Tuple[float, ...]
    rla_window: Optional[float]
    arrival_pps: float
    stability_margin: Optional[float]


def _single_bottleneck(spec: FluidSpec):
    if len(spec.bottlenecks) != 1:
        raise ConfigurationError(
            "equilibrium solver handles single-bottleneck specs; "
            f"got {len(spec.bottlenecks)}"
        )
    return spec.bottlenecks[0]


def _equilibrium_windows(
    spec: FluidSpec, p: float
) -> Tuple[List[float], Optional[float]]:
    """Cohort windows at loss ``p`` from the closed-form equilibria."""
    if p <= 0.0:
        raise ConfigurationError(f"need positive loss for windows: {p}")
    tcp = [pa_window(p)] * len(spec.tcp_cohorts)
    rla = None
    if spec.rla_cohorts:
        # Single bottleneck: every receiver loses together — one group.
        rla = rla_window_groups([(sum(c.receivers
                                      for c in spec.rla_cohorts), p)])
    return tcp, rla


def _queue_at(spec: FluidSpec, p: float) -> float:
    """Equilibrium queue depth implied by loss ``p`` on the profile."""
    bn = _single_bottleneck(spec)
    if bn.discipline == "fixed":
        return 0.0
    if bn.discipline == "droptail":
        return bn.buffer_pkts
    # RED: avg == q at equilibrium, and p = max_p (q - min)/(max - min).
    return bn.min_th + (p / bn.max_p) * (bn.max_th - bn.min_th)


def _state(model: FluidModel, tcp_windows: Sequence[float],
           rla_window: Optional[float], queue: float) -> List[float]:
    """The ODE state holding these windows and this queue (RED's
    average at the queue)."""
    state = model.initial_state()
    state[:len(tcp_windows)] = tcp_windows
    if rla_window is not None and model.has_rla:
        state[model.idx_rla] = rla_window
    state[model.base_q] = queue
    if model.spec.bottlenecks[0].discipline == "red":
        state[model.base_avg] = queue
    return state


def _report(model: FluidModel, status: str, p: float) -> EquilibriumReport:
    """The fixed point at loss ``p``: the closed-form windows, the queue
    ``p`` implies on the profile, and the kernel's ``arrival`` there."""
    spec = model.spec
    tcp_windows, rla_window = _equilibrium_windows(spec, p)
    queue = _queue_at(spec, p)
    state = _state(model, tcp_windows, rla_window, queue)
    return EquilibriumReport(status, p, queue, tuple(tcp_windows), rla_window,
                             model.instantaneous(state)["arrival"][0], None)


def _residual(model: FluidModel, p: float) -> float:
    """Queue balance ``A(p)(1-p) - C``; zero at the fixed point."""
    load = _report(model, "interior", p).arrival_pps
    return load * (1.0 - p) - _single_bottleneck(model.spec).capacity_pps


def solve_equilibrium(spec: FluidSpec,
                      model: Optional[FluidModel] = None) -> EquilibriumReport:
    """Fixed point of a single-bottleneck spec (no stability analysis).

    ``model`` is ``FluidModel(spec)`` where the caller already holds
    one (a model of another spec object is refused): the load at a
    probe is its kernel's ``arrival``.
    """
    spec.validate()
    bn = _single_bottleneck(spec)
    model = model_of(spec, model, "solve_equilibrium")

    if bn.discipline == "fixed":
        if bn.loss_p <= 0.0:
            return EquilibriumReport("lossless", 0.0, 0.0, (), None,
                                     0.0, None)
        return _report(model, "interior", bn.loss_p)

    # The top of the continuous drop profile: RED's linear region ends
    # at max_p; drop-tail's excess-rate loss is bounded below 1, and so
    # is every loss the window formulas take (max_p may be 1).
    p_hi = min(bn.max_p if bn.discipline == "red" else 1.0, 1.0 - 1e-9)
    if _residual(model, P_FLOOR) <= 0.0:
        # Demand never fills the profile: effectively lossless.
        return EquilibriumReport(
            "lossless", 0.0, 0.0 if bn.discipline == "red"
            else min(bn.buffer_pkts, 0.0), (), None,
            _report(model, "lossless", P_FLOOR).arrival_pps, None,
        )
    if _residual(model, p_hi) >= 0.0:
        # Even maximal profile loss can't absorb the demand.
        return _report(model, "saturated", p_hi)

    lo, hi = P_FLOOR, p_hi
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if _residual(model, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return _report(model, "interior", 0.5 * (lo + hi))


def equilibrium_state(model: FluidModel,
                      report: EquilibriumReport) -> List[float]:
    """The full ODE state vector corresponding to an equilibrium report.

    Uses ``model`` for the state layout only: no kernel is compiled.
    """
    return _state(model, report.tcp_windows, report.rla_window,
                  report.queue)


def _balance(a: List[List[float]]) -> None:
    """Scale rows and columns by powers of two until their norms agree.

    A similarity transform by an exact diagonal (Parlett & Reinsch): the
    spectrum is untouched, the matrix norm — and with it the rounding
    error of everything downstream — shrinks.  A 10⁶-flow Jacobian
    mixes entries of order 10⁶ (load per window) with order 10⁻⁶
    (``w_q`` per packet).
    """
    n = len(a)
    done = False
    while not done:
        done = True
        for i in range(n):
            col = sum(abs(a[j][i]) for j in range(n) if j != i)
            row = sum(abs(a[i][j]) for j in range(n) if j != i)
            if col == 0.0 or row == 0.0:
                continue
            f = 1.0
            total = col + row
            while col < row / 2.0:
                f *= 2.0
                col *= 4.0
            while col > row * 2.0:
                f /= 2.0
                col /= 4.0
            if (col + row) / f < 0.95 * total:
                done = False
                for j in range(n):
                    a[i][j] /= f
                    a[j][i] *= f


def _hessenberg(a: List[List[float]]) -> None:
    """Householder reduction to upper Hessenberg form, in place."""
    n = len(a)
    for k in range(n - 2):
        v = [a[i][k] for i in range(k + 1, n)]
        norm = sum(x * x for x in v) ** 0.5
        if norm == 0.0:
            continue
        v[0] += norm if v[0] >= 0.0 else -norm
        vv = sum(x * x for x in v)
        for j in range(k, n):
            tau = 2.0 * sum(x * a[k + 1 + i][j] for i, x in enumerate(v)) / vv
            for i, x in enumerate(v):
                a[k + 1 + i][j] -= tau * x
        for row in a:
            tau = 2.0 * sum(x * row[k + 1 + j] for j, x in enumerate(v)) / vv
            for j, x in enumerate(v):
                row[k + 1 + j] -= tau * x
        for i in range(k + 2, n):
            a[i][k] = 0.0


def eigenvalues(matrix: Sequence[Sequence[float]]) -> List[complex]:
    """Eigenvalues of a small real square matrix, in deflation order.

    Balancing, Householder Hessenberg reduction, then single-shift
    complex QR (Wilkinson shifts, Givens rotations) on the active
    block, deflating from the bottom — the textbook dense algorithm
    (Golub & Van Loan §7.5), O(n³) in pure Python, meant for the
    (cohorts + 3)² Jacobians of :func:`stability_margin`.  Held to
    ``numpy.linalg.eigvals`` by ``tests/fluid/test_stability_oracle.py``.
    """
    a = [[float(x) for x in row] for row in matrix]
    _balance(a)
    _hessenberg(a)
    h = [[complex(x) for x in row] for row in a]
    found: List[complex] = []
    hi = len(h) - 1
    sweeps = 0
    while hi >= 0:
        lo = hi
        while lo > 0:
            diagonal = abs(h[lo - 1][lo - 1]) + abs(h[lo][lo])
            if abs(h[lo][lo - 1]) <= EPSILON * diagonal:
                break
            lo -= 1
        if lo == hi:
            found.append(h[hi][hi])
            hi -= 1
            sweeps = 0
            continue
        sweeps += 1
        if sweeps > MAX_SWEEPS:
            raise SimulationError(
                f"eigenvalue iteration did not converge in {MAX_SWEEPS} "
                f"sweeps on a {len(h)}x{len(h)} matrix"
            )
        # Wilkinson shift: the eigenvalue of the trailing 2x2 block
        # [[p, q], [r, s]] nearer to s; every tenth sweep an ad-hoc
        # shift instead, which breaks the rare cycle.
        p, q = h[hi - 1][hi - 1], h[hi - 1][hi]
        r, s = h[hi][hi - 1], h[hi][hi]
        half = (p - s) / 2.0
        root = cmath.sqrt(half * half + q * r)
        if abs(half + root) < abs(half - root):
            root = -root
        if sweeps % 10 == 0 or half + root == 0:
            shift = s + abs(r)
        else:
            shift = s - q * r / (half + root)
        for i in range(lo, hi + 1):
            h[i][i] -= shift
        # H - shift = QR by Givens rotations, then H' = RQ + shift.
        rotations = []
        for k in range(lo, hi):
            x, y = h[k][k], h[k + 1][k]
            length = (abs(x) ** 2 + abs(y) ** 2) ** 0.5
            cos, sin = (x / length, y / length) if length else (1.0 + 0j, 0j)
            rotations.append((cos, sin))
            upper, lower = h[k], h[k + 1]
            for j in range(k, hi + 1):
                u, w = upper[j], lower[j]
                upper[j] = cos.conjugate() * u + sin.conjugate() * w
                lower[j] = cos * w - sin * u
        for k, (cos, sin) in zip(range(lo, hi), rotations):
            for i in range(lo, min(k + 2, hi) + 1):
                u, w = h[i][k], h[i][k + 1]
                h[i][k] = u * cos + w * sin
                h[i][k + 1] = w * cos.conjugate() - u * sin.conjugate()
        for i in range(lo, hi + 1):
            h[i][i] += shift
    return found


def jacobian(model: FluidModel, x0: Sequence[float]) -> List[List[float]]:
    """Central-difference Jacobian of ``model.derivatives`` at ``x0``."""
    n = model.n_state
    jac = [[0.0] * n for _ in range(n)]
    for j in range(n):
        eps = 1e-6 * max(1.0, abs(x0[j]))
        hi = list(x0)
        lo = list(x0)
        hi[j] += eps
        lo[j] -= eps
        f_hi = model.derivatives(hi)
        f_lo = model.derivatives(lo)
        for i in range(n):
            jac[i][j] = (f_hi[i] - f_lo[i]) / (2.0 * eps)
    return jac


def stability_margin(model: FluidModel,
                     report: EquilibriumReport) -> Optional[float]:
    """``-max Re(eig(J))`` of the linearization at the fixed point.

    Positive margins mean the fixed point is locally asymptotically
    stable (Reynier's stable regime); negative margins mean the
    deterministic system spirals away into the RED limit cycle.
    Returns ``None`` for fixed points on a boundary of the state space
    (drop-tail's full buffer, the lossless corner), where a two-sided
    linearization does not exist.
    """
    bn = _single_bottleneck(model.spec)
    if report.status != "interior" or bn.discipline != "red":
        return None
    spectrum = eigenvalues(jacobian(model, equilibrium_state(model, report)))
    return -max(ev.real for ev in spectrum)


def reynier_check(spec: FluidSpec,
                  model: Optional[FluidModel] = None) -> EquilibriumReport:
    """Solve the fixed point and attach its stability margin.

    ``model`` is ``FluidModel(spec)`` where the caller already holds one
    (``run_fluid`` does, so a row compiles one kernel: the equilibrium's
    load and the linearization both read it).
    """
    model = model_of(spec, model, "reynier_check")
    report = solve_equilibrium(spec, model)
    return replace(report, stability_margin=stability_margin(model, report))
