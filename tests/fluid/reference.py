"""The pre-PR-15 fluid integrator, kept verbatim as the bitwise oracle.

Until PR 15 the vector field was five methods (``rtts`` -> ``arrivals``
-> ``losses`` -> ``rla_drift_terms`` -> ``derivatives``) re-reading the
frozen spec per cohort per call, and ``integrate`` paid a fifth field
evaluation (``instantaneous``) per measured step.  ``repro.fluid`` now
compiles the spec to one fused ``field``; this module is the old code,
moved here unchanged (class renamed ``ReferenceModel``, imports made
absolute) so ``test_integrator_oracle.py`` can require the new
integrator to reproduce it bit for bit.  Do not optimise or tidy it:
its float-operation order *is* the contract.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.fluid.integrate import FluidResult
from repro.fluid.spec import DROPTAIL_RAMP, FluidSpec

#: Window floor, matching the jump-chain clamp ``max(W/2, 1)``.
MIN_WINDOW = 1.0


def red_drop_probability(avg: float, min_th: float, max_th: float,
                         max_p: float) -> float:
    """RED's early-drop profile ``p_b(avg)`` (no count correction).

    Zero below ``min_th``, linear up to ``max_p`` at ``max_th``, and 1.0
    at or above ``max_th`` — the same profile
    :class:`repro.net.red.REDQueue` applies per packet; the fluid limit
    drops the per-packet count correction, whose mean effect is already
    the marked fraction.
    """
    if avg < min_th:
        return 0.0
    if avg >= max_th:
        return 1.0
    return max_p * (avg - min_th) / (max_th - min_th)


def overflow_loss(q: float, buffer_pkts: float, arrival: float,
                  capacity: float) -> float:
    """Continuous drop-tail loss: the buffer cliff, regularized.

    A drop-tail queue pinned at its buffer limit drops exactly the
    excess-rate fraction ``1 - C/A``.  The fluid model ramps that loss
    in linearly over the top ``(1 - DROPTAIL_RAMP)`` of the buffer so
    the ODE field stays continuous; at ``q = buffer`` the loss equals
    the exact excess fraction.
    """
    if arrival <= capacity:
        return 0.0
    ramp_start = DROPTAIL_RAMP * buffer_pkts
    if q <= ramp_start:
        return 0.0
    ramp = min(1.0, (q - ramp_start) / (buffer_pkts - ramp_start))
    return ramp * (1.0 - capacity / arrival)


class ReferenceModel:
    """A :class:`FluidSpec` compiled to an ODE vector field.

    Precomputes the state layout and cohort constants once; the
    per-step cost of :meth:`derivatives` is O(cohorts + bottlenecks)
    regardless of how many flows the cohorts describe.
    """

    def __init__(self, spec: FluidSpec):
        spec.validate()
        self.spec = spec
        self.n_tcp = len(spec.tcp_cohorts)
        self.has_rla = bool(spec.rla_cohorts)
        self.n_bottlenecks = len(spec.bottlenecks)
        self.idx_rla = self.n_tcp if self.has_rla else -1
        self.base_q = self.n_tcp + (1 if self.has_rla else 0)
        self.base_avg = self.base_q + self.n_bottlenecks
        self.n_state = self.base_avg + self.n_bottlenecks
        #: Total RLA receivers N (the listening coin is 1/N).
        self.n_receivers = spec.n_receivers
        #: Bottlenecks carrying RLA traffic (one multicast copy each),
        #: with the receiver count behind each.  Receivers behind one
        #: bottleneck lose *together* (one dropped copy deprives them
        #: all), so the drift groups them — the §4.2 Lemma's correlated
        #: case, which the dumbbell cross-validation confirms matters.
        counts: Dict[int, int] = {}
        for cohort in spec.rla_cohorts:
            counts[cohort.bottleneck] = (counts.get(cohort.bottleneck, 0)
                                         + cohort.receivers)
        self.rla_groups = sorted(counts.items())
        self.rla_bottlenecks = [b for b, _ in self.rla_groups]

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def initial_state(self) -> List[float]:
        """All windows at the floor, all queues and averages empty."""
        state = [0.0] * self.n_state
        for c in range(self.n_tcp):
            state[c] = MIN_WINDOW
        if self.has_rla:
            state[self.idx_rla] = MIN_WINDOW
        return state

    # ------------------------------------------------------------------
    # Instantaneous quantities (shared by derivatives and measurement)
    # ------------------------------------------------------------------
    def rtts(self, state: List[float]) -> Tuple[List[float], float]:
        """Effective RTTs: propagation plus queueing delay ``q/C``.

        Returns ``(per-TCP-cohort RTTs, RLA session RTT)``; the RLA RTT
        is the *maximum* over its cohorts' effective RTTs (the sender
        clocks on the worst receiver), or 0.0 with no RLA cohorts.
        """
        spec = self.spec
        tcp_rtts = []
        for cohort in spec.tcp_cohorts:
            bn = spec.bottlenecks[cohort.bottleneck]
            q = state[self.base_q + cohort.bottleneck]
            tcp_rtts.append(cohort.rtt_s + q / bn.capacity_pps)
        rla_rtt = 0.0
        for cohort in spec.rla_cohorts:
            bn = spec.bottlenecks[cohort.bottleneck]
            q = state[self.base_q + cohort.bottleneck]
            rla_rtt = max(rla_rtt, cohort.rtt_s + q / bn.capacity_pps)
        return tcp_rtts, spec.rla_rtt_factor * rla_rtt

    def arrivals(self, state: List[float],
                 tcp_rtts: List[float], rla_rtt: float) -> List[float]:
        """Offered load per bottleneck: ``sum flows * W/R`` plus RLA."""
        loads = [0.0] * self.n_bottlenecks
        for c, cohort in enumerate(self.spec.tcp_cohorts):
            loads[cohort.bottleneck] += cohort.flows * state[c] / tcp_rtts[c]
        if self.has_rla and rla_rtt > 0.0:
            rla_rate = state[self.idx_rla] / rla_rtt
            for b in self.rla_bottlenecks:
                loads[b] += rla_rate
        return loads

    def losses(self, state: List[float], loads: List[float]) -> List[float]:
        """Per-bottleneck drop probability under its discipline."""
        ps = []
        for b, bn in enumerate(self.spec.bottlenecks):
            if bn.discipline == "fixed":
                ps.append(bn.loss_p)
                continue
            q = state[self.base_q + b]
            p_of = overflow_loss(q, bn.buffer_pkts, loads[b],
                                 bn.capacity_pps)
            if bn.discipline == "red":
                avg = state[self.base_avg + b]
                p_red = red_drop_probability(avg, bn.min_th, bn.max_th,
                                             bn.max_p)
                ps.append(1.0 - (1.0 - p_red) * (1.0 - p_of))
            else:
                ps.append(p_of)
        return ps

    def rla_drift_terms(self, ps: List[float]) -> Tuple[float, float]:
        """``(G, H)``: no-cut and expected-halving products over groups.

        Receivers behind bottleneck ``b`` signal *together* with its
        loss probability ``p_b`` (common loss within the group,
        independent across bottlenecks), so
        ``G = prod_b [(1-p_b) + p_b (1 - 1/N)^{n_b}]`` and
        ``H = prod_b [(1-p_b) + p_b (1 - 1/(2N))^{n_b}]`` with ``N``
        the total receiver count — O(bottlenecks) exponent products,
        the same algebra as :func:`repro.models.rla_window_groups`.
        """
        big_n = self.n_receivers
        g = 1.0
        h = 1.0
        for b, count in self.rla_groups:
            p = ps[b]
            g *= (1.0 - p) + p * (1.0 - 1.0 / big_n) ** count
            h *= (1.0 - p) + p * (1.0 - 1.0 / (2.0 * big_n)) ** count
        return g, h

    # ------------------------------------------------------------------
    # The vector field
    # ------------------------------------------------------------------
    def derivatives(self, state: List[float]) -> List[float]:
        """Time derivative of the full state vector at ``state``."""
        spec = self.spec
        tcp_rtts, rla_rtt = self.rtts(state)
        loads = self.arrivals(state, tcp_rtts, rla_rtt)
        ps = self.losses(state, loads)
        deriv = [0.0] * self.n_state

        for c, cohort in enumerate(spec.tcp_cohorts):
            p = ps[cohort.bottleneck]
            w = state[c]
            dw = ((1.0 - p) - p * w * w / 2.0) / tcp_rtts[c]
            if w <= MIN_WINDOW and dw < 0.0:
                dw = 0.0
            deriv[c] = dw

        if self.has_rla:
            g, h = self.rla_drift_terms(ps)
            w = state[self.idx_rla]
            dw = (g - w * w * (1.0 - h)) / rla_rtt
            if w <= MIN_WINDOW and dw < 0.0:
                dw = 0.0
            deriv[self.idx_rla] = dw

        for b, bn in enumerate(spec.bottlenecks):
            if bn.discipline == "fixed":
                continue  # no queue feedback for the validation discipline
            q = state[self.base_q + b]
            dq = loads[b] * (1.0 - ps[b]) - bn.capacity_pps
            if (q <= 0.0 and dq < 0.0) or (q >= bn.buffer_pkts and dq > 0.0):
                dq = 0.0
            deriv[self.base_q + b] = dq
            if bn.discipline == "red":
                avg = state[self.base_avg + b]
                deriv[self.base_avg + b] = bn.w_q * loads[b] * (q - avg)

        return deriv

    def clamp(self, state: List[float]) -> None:
        """Project a state back into the physical region, in place."""
        for c in range(self.n_tcp):
            if state[c] < MIN_WINDOW:
                state[c] = MIN_WINDOW
        if self.has_rla and state[self.idx_rla] < MIN_WINDOW:
            state[self.idx_rla] = MIN_WINDOW
        for b, bn in enumerate(self.spec.bottlenecks):
            qi = self.base_q + b
            state[qi] = min(max(state[qi], 0.0), bn.buffer_pkts)
            ai = self.base_avg + b
            state[ai] = min(max(state[ai], 0.0), bn.buffer_pkts)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def instantaneous(self, state: List[float]) -> Dict[str, Tuple[float, ...]]:
        """Instantaneous observables for time-averaging by the integrator.

        Goodputs are per-flow (per-receiver for RLA): the delivered rate
        ``(1-p) W / R``.  The RLA goodput tuple is per *cohort*; the
        session-level figure of merit is its min (worst receiver).
        """
        tcp_rtts, rla_rtt = self.rtts(state)
        loads = self.arrivals(state, tcp_rtts, rla_rtt)
        ps = self.losses(state, loads)
        tcp_goodput = tuple(
            (1.0 - ps[cohort.bottleneck]) * state[c] / tcp_rtts[c]
            for c, cohort in enumerate(self.spec.tcp_cohorts)
        )
        if self.has_rla:
            rla_send = state[self.idx_rla] / rla_rtt
            rla_goodput = tuple(
                (1.0 - ps[cohort.bottleneck]) * rla_send
                for cohort in self.spec.rla_cohorts
            )
            rla_window = (state[self.idx_rla],)
        else:
            rla_goodput = ()
            rla_window = ()
        return {
            "tcp_window": tuple(state[: self.n_tcp]),
            "tcp_goodput": tcp_goodput,
            "rla_window": rla_window,
            "rla_goodput": rla_goodput,
            "queue": tuple(
                state[self.base_q: self.base_q + self.n_bottlenecks]
            ),
            "avg_queue": tuple(
                state[self.base_avg: self.base_avg + self.n_bottlenecks]
            ),
            "loss": tuple(ps),
            "arrival": tuple(loads),
            "drop_rate": tuple(a * p for a, p in zip(loads, ps)),
        }


def rk4_step(model: ReferenceModel, state: List[float],
             dt: float) -> List[float]:
    """One classical RK4 step; the result is clamped into the physical set."""
    k1 = model.derivatives(state)
    mid1 = [s + 0.5 * dt * d for s, d in zip(state, k1)]
    model.clamp(mid1)
    k2 = model.derivatives(mid1)
    mid2 = [s + 0.5 * dt * d for s, d in zip(state, k2)]
    model.clamp(mid2)
    k3 = model.derivatives(mid2)
    end = [s + dt * d for s, d in zip(state, k3)]
    model.clamp(end)
    k4 = model.derivatives(end)
    nxt = [
        s + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]
    model.clamp(nxt)
    return nxt


def integrate(spec: FluidSpec) -> FluidResult:
    """Integrate ``spec`` over its horizon and average the measured window.

    The step count is fixed up front (``round(horizon / dt)``), so two
    runs of the same spec execute the identical float-op sequence.
    """
    model = ReferenceModel(spec)
    dt = spec.dt
    total_steps = round(spec.horizon / dt)
    warmup_steps = round(spec.warmup / dt)
    if total_steps <= warmup_steps:
        raise ConfigurationError(
            f"horizon {spec.horizon}s leaves no measured steps at dt={dt}"
        )

    state = model.initial_state()
    sums: Dict[str, List[float]] = {}
    peak_queue: List[float] = [0.0] * model.n_bottlenecks
    measured = 0

    for step in range(total_steps):
        state = rk4_step(model, state, dt)
        if step < warmup_steps:
            continue
        measured += 1
        obs = model.instantaneous(state)
        for key, values in obs.items():
            acc = sums.get(key)
            if acc is None:
                sums[key] = list(values)
            else:
                for i, v in enumerate(values):
                    acc[i] += v
        for b, depth in enumerate(obs["queue"]):
            if depth > peak_queue[b]:
                peak_queue[b] = depth

    means = {
        key: tuple(total / measured for total in acc)
        for key, acc in sums.items()
    }
    return FluidResult(
        means=means,
        peak_queue=tuple(peak_queue),
        final_state=tuple(state),
        steps=total_steps,
        measured_s=measured * dt,
    )
