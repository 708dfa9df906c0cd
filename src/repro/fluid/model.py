"""Mean-field dynamics: the coupled window/queue ODE system.

The fluid backend replaces per-packet simulation with the deterministic
mean-field limit of the same protocols (McDonald & Reynier, *Ann. Appl.
Prob.* 2006): as the number of flows grows, the empirical window
distribution of TCP connections through a RED buffer converges to the
solution of an ODE system, so accuracy *improves* exactly where the
packet simulator becomes infeasible.

State vector (plain floats, no RNG anywhere):

``[W_0 .. W_{k-1}, W_rla?, q_0 .. q_{B-1}, avg_0 .. avg_{B-1}]``

* ``W_c`` — per-flow congestion window of TCP cohort ``c`` (packets),
* ``W_rla`` — the RLA session window (present iff the spec has RLA
  cohorts),
* ``q_b`` — instantaneous queue depth of bottleneck ``b`` (packets),
* ``avg_b`` — RED's exponentially-averaged depth (present for every
  bottleneck; frozen at 0 unless the discipline is ``"red"``).

The drift terms are chosen so the fixed points coincide *exactly* with
the closed forms of :mod:`repro.models` (see docs/FLUID.md for the full
derivation):

* TCP:  ``dW/dt = [(1-p) - p W²/2] / R`` — equilibrium
  ``W* = sqrt(2(1-p)/p)``, equation 1 via
  :func:`repro.models.tcp_formula.pa_window`;
* RLA:  ``dW/dt = [G - W² (1-H)] / R_rla`` with
  ``G = prod_b [(1-p_b) + p_b (1 - 1/N)^{n_b}]`` and
  ``H = prod_b [(1-p_b) + p_b (1 - 1/(2N))^{n_b}]`` over bottlenecks ``b``
  — equilibrium ``W* = sqrt(G / (1-H))``, the §4.2 drift balance via
  :func:`repro.models.rla_drift.rla_window_groups`; ``R_rla`` is the *worst*
  (largest) receiver RTT, the worst-receiver coupling of equation 5;
* queue: ``dq/dt = A (1-p) - C`` clamped to ``[0, buffer]``;
* RED average: ``d(avg)/dt = w_q A (q - avg)`` — the fluid limit of the
  per-arrival EWMA update.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import Dict, List, Tuple

from .kernel import (
    MIN_WINDOW,
    FieldEval,
    Kernel,
    compile_kernel,
    kernel_source,
)
from .spec import FluidSpec


class FluidModel:
    """A validated :class:`FluidSpec` compiled to an ODE vector field.

    ``__init__`` fixes the state layout only.  The dynamics are the
    kernel :mod:`repro.fluid.kernel` emits for the spec — scalar locals,
    unrolled loops, constants as literals — compiled on first use of
    :attr:`kernel`, so a caller that needs only indices (the equilibrium
    state) pays nothing, and one :meth:`field` call is O(cohorts +
    bottlenecks) float work with no walks over the frozen spec,
    regardless of how many flows the cohorts describe.  The caller
    validates the spec (:func:`repro.fluid.integrate` and the
    equilibrium solver do).

    The float-operation order of the kernel and of :meth:`observe` is a
    contract (see :mod:`repro.fluid.kernel`): ``tests/fluid/reference.py``
    keeps the step-by-step code this class replaced, and
    ``tests/fluid/test_integrator_oracle.py`` requires bit-identical
    results.
    """

    def __init__(self, spec: FluidSpec):
        self.spec = spec
        self.n_tcp = len(spec.tcp_cohorts)
        self.has_rla = bool(spec.rla_cohorts)
        self.n_bottlenecks = len(spec.bottlenecks)
        self.idx_rla = self.n_tcp if self.has_rla else -1
        self.base_q = self.n_tcp + (1 if self.has_rla else 0)
        self.base_avg = self.base_q + self.n_bottlenecks
        self.n_state = self.base_avg + self.n_bottlenecks
        #: Length of the :meth:`observe` vector.
        self.n_observables = (self.n_state + self.n_tcp
                              + len(spec.rla_cohorts)
                              + 3 * self.n_bottlenecks)
        #: Bottleneck index of each TCP / RLA cohort, in spec order.
        self._tcp_at = tuple(c.bottleneck for c in spec.tcp_cohorts)
        self._rla_at = tuple(c.bottleneck for c in spec.rla_cohorts)

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def initial_state(self) -> List[float]:
        """All windows at the floor, all queues and averages empty."""
        return ([MIN_WINDOW] * self.base_q
                + [0.0] * (2 * self.n_bottlenecks))

    # ------------------------------------------------------------------
    # The vector field
    # ------------------------------------------------------------------
    @cached_property
    def kernel_source(self) -> str:
        """Generated source of :attr:`kernel`: a pure function of the spec."""
        return kernel_source(self)

    @cached_property
    def kernel(self) -> Kernel:
        """``(field, step)`` compiled from :attr:`kernel_source`, once.

        ``field(state)`` is :meth:`field`; ``step(state, k1, dt)``
        finishes the RK4 step whose first stage ``k1 = field(state)[0]``
        is given.  A hot loop binds the pair once.
        """
        return compile_kernel(self.kernel_source, self.spec.name, self)

    def field(self, state: List[float]) -> FieldEval:
        """Evaluate the whole field at ``state`` in one pass.

        Returns ``(deriv, tcp_rtts, rla_rtt, loads, ps)``: the time
        derivative of the state vector, plus the intermediates every
        observable is made of — the effective RTT of each TCP cohort
        (propagation plus queueing delay ``q/C``), the RLA session RTT
        (``rla_rtt_factor`` times the *worst* cohort's effective RTT,
        since the sender clocks on the worst receiver; 0.0 with no RLA
        cohorts), the offered load per bottleneck (``sum flows * W/R``
        plus one multicast copy) and the drop probability per
        bottleneck under its discipline.
        """
        return self.kernel[0](state)

    def derivatives(self, state: List[float]) -> Tuple[float, ...]:
        """Time derivative of the full state vector at ``state``."""
        return self.kernel[0](state)[0]

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def observe(self, state: List[float],
                evaluation: FieldEval) -> List[float]:
        """Flat observable vector at ``state`` given its field evaluation.

        Layout (what :meth:`named` splits): the state vector itself
        (TCP windows, RLA window, queues, RED averages), then per-TCP-
        cohort goodput, per-RLA-cohort goodput, and per bottleneck the
        loss, arrival rate and drop rate.  Goodputs are per-flow
        (per-receiver for RLA): the delivered rate ``(1-p) W / R``.
        """
        _, tcp_rtts, rla_rtt, loads, ps = evaluation
        out = state[:]
        out += [(1.0 - ps[b]) * w / rtt
                for b, w, rtt in zip(self._tcp_at, state, tcp_rtts)]
        if self.has_rla:
            rla_send = state[self.idx_rla] / rla_rtt
            out += [(1.0 - ps[b]) * rla_send for b in self._rla_at]
        out += ps
        out += loads
        out.extend(map(mul, loads, ps))
        return out

    def named(self, flat: List[float]) -> Dict[str, Tuple[float, ...]]:
        """Split a vector laid out by :meth:`observe` into named tuples.

        The RLA goodput tuple is per *cohort*; the session-level figure
        of merit is its min (worst receiver).
        """
        n_tcp, base_q, base_avg = self.n_tcp, self.base_q, self.base_avg
        tcp_end = self.n_state + n_tcp
        rla_end = tcp_end + len(self._rla_at)
        loss_end = rla_end + self.n_bottlenecks
        arrival_end = loss_end + self.n_bottlenecks
        return {
            "tcp_window": tuple(flat[:n_tcp]),
            "tcp_goodput": tuple(flat[self.n_state:tcp_end]),
            "rla_window": tuple(flat[n_tcp:base_q]),
            "rla_goodput": tuple(flat[tcp_end:rla_end]),
            "queue": tuple(flat[base_q:base_avg]),
            "avg_queue": tuple(flat[base_avg:self.n_state]),
            "loss": tuple(flat[rla_end:loss_end]),
            "arrival": tuple(flat[loss_end:arrival_end]),
            "drop_rate": tuple(flat[arrival_end:]),
        }

    def instantaneous(self,
                      state: List[float]) -> Dict[str, Tuple[float, ...]]:
        """Named instantaneous observables at ``state``."""
        return self.named(self.observe(state, self.field(state)))
