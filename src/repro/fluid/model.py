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
  :func:`repro.models.pa_window`;
* RLA:  ``dW/dt = [G - W² (1-H)] / R_rla`` with
  ``G = prod_j (1 - p_j/N)^{n_j}`` and
  ``H = prod_j (1 - p_j/(2N))^{n_j}`` — equilibrium
  ``W* = sqrt(G / (1-H))``, the §4.2 drift balance via
  :func:`repro.models.rla_window_cohorts`; ``R_rla`` is the *worst*
  (largest) receiver RTT, the worst-receiver coupling of equation 5;
* queue: ``dq/dt = A (1-p) - C`` clamped to ``[0, buffer]``;
* RED average: ``d(avg)/dt = w_q A (q - avg)`` — the fluid limit of the
  per-arrival EWMA update.
"""

from __future__ import annotations

from operator import mul
from typing import Dict, List, Tuple

from .spec import DROPTAIL_RAMP, FluidSpec

#: Window floor, matching the jump-chain clamp ``max(W/2, 1)``.
MIN_WINDOW = 1.0

#: What :meth:`FluidModel.field` returns:
#: ``(deriv, tcp_rtts, rla_rtt, loads, ps)``.
FieldEval = Tuple[List[float], List[float], float, List[float], List[float]]


class FluidModel:
    """A validated :class:`FluidSpec` compiled to an ODE vector field.

    ``__init__`` flattens the spec into constant tuples — state indices,
    capacities, and every sub-expression whose operands are all spec
    constants — so one :meth:`field` call is O(cohorts + bottlenecks)
    float work with no walks over the frozen spec, regardless of how
    many flows the cohorts describe.  The caller validates the spec
    (:func:`repro.fluid.integrate` and the equilibrium solver do).

    The float-operation order of :meth:`field`, :meth:`observe` and
    :meth:`clamp` is a contract: ``tests/fluid/reference.py`` keeps the
    step-by-step code this class replaced, and
    ``tests/fluid/test_integrator_oracle.py`` requires bit-identical
    results.  The one rewrite allowed here is hoisting a sub-expression
    whose operands are all spec constants (same operands, same bits);
    nothing that depends on the state is re-ordered or re-associated.
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
        base_q, base_avg = self.base_q, self.base_avg

        capacity = [bn.capacity_pps for bn in spec.bottlenecks]
        #: Per TCP cohort: ``(state index, q index, bottleneck, rtt_s,
        #: capacity, flows)``.
        self._tcp = tuple(
            (c, base_q + cohort.bottleneck, cohort.bottleneck,
             cohort.rtt_s, capacity[cohort.bottleneck], float(cohort.flows))
            for c, cohort in enumerate(spec.tcp_cohorts))
        #: Per RLA cohort: ``(q index, rtt_s, capacity)``.
        self._rla = tuple(
            (base_q + cohort.bottleneck, cohort.rtt_s,
             capacity[cohort.bottleneck])
            for cohort in spec.rla_cohorts)
        #: Bottleneck index of each TCP / RLA cohort, in spec order.
        self._tcp_at = tuple(c.bottleneck for c in spec.tcp_cohorts)
        self._rla_at = tuple(c.bottleneck for c in spec.rla_cohorts)
        self._rla_rtt_factor = spec.rla_rtt_factor

        # Receivers behind one bottleneck lose *together* (one dropped
        # copy deprives them all), so the drift groups them — the §4.2
        # Lemma's correlated case, which the dumbbell cross-validation
        # confirms matters.  With N receivers in total (the listening
        # coin is 1/N) and n_b of them behind bottleneck b, the no-cut
        # and half-survive factors (1-1/N)^n_b and (1-1/(2N))^n_b are
        # constants of the spec.
        big_n = spec.n_receivers
        counts: Dict[int, int] = {}
        for cohort in spec.rla_cohorts:
            counts[cohort.bottleneck] = (counts.get(cohort.bottleneck, 0)
                                         + cohort.receivers)
        #: Per RLA-carrying bottleneck, ascending:
        #: ``(b, (1-1/N)^n_b, (1-1/(2N))^n_b)``.
        self._rla_groups = tuple(
            (b, (1.0 - 1.0 / big_n) ** count,
             (1.0 - 1.0 / (2.0 * big_n)) ** count)
            for b, count in sorted(counts.items()))

        #: Loss-vector template: ``loss_p`` at fixed-loss bottlenecks.
        self._fixed_ps = [bn.loss_p if bn.discipline == "fixed" else 0.0
                          for bn in spec.bottlenecks]
        #: Per queue-feedback (non-fixed) bottleneck: ``(b, q index,
        #: avg index or -1 for drop-tail, capacity, buffer, ramp start,
        #: ramp length, min_th, max_th, max_p, max_th - min_th, w_q)``.
        self._feedback = tuple(
            (b, base_q + b, base_avg + b if bn.discipline == "red" else -1,
             bn.capacity_pps, bn.buffer_pkts,
             DROPTAIL_RAMP * bn.buffer_pkts,
             bn.buffer_pkts - DROPTAIL_RAMP * bn.buffer_pkts,
             bn.min_th, bn.max_th, bn.max_p, bn.max_th - bn.min_th, bn.w_q)
            for b, bn in enumerate(spec.bottlenecks)
            if bn.discipline != "fixed")
        #: Per queue and average state index, its upper clamp (buffer).
        self._bounds = tuple(
            (base + b, bn.buffer_pkts)
            for base in (base_q, base_avg)
            for b, bn in enumerate(spec.bottlenecks))

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
        deriv = [0.0] * self.n_state
        loads = [0.0] * self.n_bottlenecks

        tcp_rtts = []
        for c, qi, b, rtt_s, capacity, flows in self._tcp:
            rtt = rtt_s + state[qi] / capacity
            tcp_rtts.append(rtt)
            loads[b] += flows * state[c] / rtt
        rla_rtt = 0.0
        for qi, rtt_s, capacity in self._rla:
            rtt = rtt_s + state[qi] / capacity
            if rtt > rla_rtt:
                rla_rtt = rtt
        rla_rtt = self._rla_rtt_factor * rla_rtt
        if rla_rtt > 0.0:
            rla_rate = state[self.idx_rla] / rla_rtt
            for b, _, _ in self._rla_groups:
                loads[b] += rla_rate

        # Loss, then queue and RED-average drift, per bottleneck.
        # Drop-tail is the buffer cliff, regularized: a queue pinned at
        # its limit drops exactly the excess-rate fraction 1 - C/A, and
        # the model ramps that loss in linearly over the top
        # (1 - DROPTAIL_RAMP) of the buffer so the field stays
        # continuous.  RED adds its early-drop profile p(avg): zero
        # below min_th, linear up to max_p at max_th, 1 from there (the
        # profile repro.net.red.REDQueue applies per packet, minus the
        # count correction, whose mean effect is already the marked
        # fraction).  Fixed-loss bottlenecks keep the template's p and
        # have no queue feedback.
        ps = self._fixed_ps[:]
        for (b, qi, ai, capacity, buffer, ramp_start, ramp_len,
             min_th, max_th, max_p, th_span, w_q) in self._feedback:
            q = state[qi]
            load = loads[b]
            if load <= capacity or q <= ramp_start:
                p = 0.0
            else:
                ramp = (q - ramp_start) / ramp_len
                if not ramp < 1.0:
                    ramp = 1.0
                p = ramp * (1.0 - capacity / load)
            if ai >= 0:
                avg = state[ai]
                if avg < min_th:
                    p_red = 0.0
                elif avg >= max_th:
                    p_red = 1.0
                else:
                    p_red = max_p * (avg - min_th) / th_span
                p = 1.0 - (1.0 - p_red) * (1.0 - p)
                deriv[ai] = w_q * load * (q - avg)
            ps[b] = p
            dq = load * (1.0 - p) - capacity
            if (q <= 0.0 and dq < 0.0) or (q >= buffer and dq > 0.0):
                dq = 0.0
            deriv[qi] = dq

        for c, b in enumerate(self._tcp_at):
            p = ps[b]
            w = state[c]
            dw = ((1.0 - p) - p * w * w / 2.0) / tcp_rtts[c]
            if w <= MIN_WINDOW and dw < 0.0:
                dw = 0.0
            deriv[c] = dw

        if self.has_rla:
            # G = prod_b [(1-p_b) + p_b (1-1/N)^{n_b}] (nobody's signal
            # is listened to) and H = prod_b [(1-p_b) + p_b
            # (1-1/(2N))^{n_b}]: common loss within a group, independent
            # across bottlenecks — O(bottlenecks) products, the algebra
            # of repro.models.rla_window_groups.
            g = 1.0
            h = 1.0
            for b, keep_all, keep_half in self._rla_groups:
                p = ps[b]
                g *= (1.0 - p) + p * keep_all
                h *= (1.0 - p) + p * keep_half
            w = state[self.idx_rla]
            dw = (g - w * w * (1.0 - h)) / rla_rtt
            if w <= MIN_WINDOW and dw < 0.0:
                dw = 0.0
            deriv[self.idx_rla] = dw

        return deriv, tcp_rtts, rla_rtt, loads, ps

    def derivatives(self, state: List[float]) -> List[float]:
        """Time derivative of the full state vector at ``state``."""
        return self.field(state)[0]

    def clamp(self, state: List[float]) -> None:
        """Project a state back into the physical region, in place."""
        for c in range(self.base_q):
            if state[c] < MIN_WINDOW:
                state[c] = MIN_WINDOW
        for i, buffer in self._bounds:
            x = state[i]
            if x < 0.0:
                x = 0.0
            if buffer < x:
                x = buffer
            state[i] = x

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
