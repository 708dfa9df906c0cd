"""Fluid twins of the packet experiment surfaces.

The fluid backend earns its keep by sliding in *behind* existing
experiments, so each twin here is a function of the packet spec it
twins (as :func:`repro.fluid.crossval.fluid_twin` is of its case): the
spec's capacities, buffers, RED parameterization
(:func:`scaled_bottleneck`) and RTTs, as a population description.

* :func:`restricted_fluid_spec` twins a figure 1
  :class:`repro.experiments.sweeps.RestrictedRunSpec` — one bottleneck
  per ``mu_pps`` branch — and refuses what the model lacks (ECN,
  endpoint configs, an audit); ``repro-rla sweep --backend fluid``
  integrates it instead of simulating;
* :func:`cohort_fluid_spec` twins an RTT-cohort dumbbell
  :class:`repro.scenarios.spec.ScenarioSpec` cell, with a ``scale``
  knob that multiplies populations *and* capacity together — the road
  to the 10⁵–10⁶-flow grid and fairness figures, where the ODE state
  stays O(cohorts) no matter how many flows a cohort holds.

Scaling keeps the *per-flow* operating point fixed (share, RTT, loss),
so a 10⁶-flow cell is the same physics as its 8-flow packet twin; the
RED averaging gain follows the mean-field scaling ``w_q ∝ 1/scale``
(:func:`mean_field_w_q`), the many-flows limit under which McDonald &
Reynier derive the averaged-queue ODE — and, practically, what keeps
``w_q · A · dt`` bounded so the fixed-step RK4 stays stable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from ..errors import ConfigurationError
from ..models.fairness import fairness_columns
from ..net.red import W_Q, red_thresholds
from ..topology.restricted import ACCESS_DELAY
from ..units import bps_to_pps, mbps, ms
from .runner import run_fluid
from .spec import BottleneckSpec, FluidSpec, RlaCohortSpec, TcpCohortSpec

if TYPE_CHECKING:
    from ..experiments.sweeps import RestrictedRunSpec
    from ..scenarios.spec import ScenarioSpec


def mean_field_w_q(scale: float) -> float:
    """RED averaging gain at population ``scale`` (mean-field ``1/scale``).

    At ``scale = 1`` this is the packet simulator's ``w_q = 0.002``; as
    the population (and capacity) grow N-fold the gain shrinks N-fold,
    keeping the averaged queue's time constant — ``1/(w_q A)`` — fixed
    in seconds, exactly the regime of the mean-field limit.
    """
    return W_Q / scale


def scaled_bottleneck(
    capacity_pps: float,
    buffer_pkts: float,
    discipline: str,
    scale: float = 1.0,
    label: str = "",
) -> BottleneckSpec:
    """A bottleneck mirroring :class:`repro.net.network.GatewayFactory`.

    RED thresholds are :func:`repro.net.red.red_thresholds` of the
    physical buffer — the packet gateway's rule — and everything
    (capacity, buffer, thresholds) multiplies by ``scale`` while ``w_q``
    divides by it.
    """
    capacity = capacity_pps * scale
    buffer = buffer_pkts * scale
    min_th, max_th = red_thresholds(buffer)
    return BottleneckSpec(
        capacity_pps=capacity,
        buffer_pkts=buffer,
        discipline=discipline,
        min_th=min_th,
        max_th=max_th,
        w_q=mean_field_w_q(scale),
        label=label,
    )


# ----------------------------------------------------------------------
# restricted topology (figure 1) — the sweeps backend
# ----------------------------------------------------------------------
def restricted_fluid_spec(point: RestrictedRunSpec) -> FluidSpec:
    """Fluid twin of one figure 1 run, read from the run's own spec.

    One :func:`scaled_bottleneck` per branch at that branch's ``mu_pps``
    (the branch gateway of :func:`repro.topology.restricted.build_restricted`
    at any buffer), and on each branch one TCP cohort and one RLA cohort
    at the branch round trip ``2 * (ACCESS_DELAY + branch_delay)``.  A
    run with ECN marks, a given endpoint config or the packet auditor is
    refused, not integrated as a different system.
    """
    topology = point.validate().topology
    missing = [what for what, needed in (
        ("ECN marks", topology.ecn),
        ("rla/tcp configs", (point.rla, point.tcp) != (None, None)),
        ("packets to audit", point.audited)) if needed]
    if missing:
        raise ConfigurationError(f"{point.run_label()} has no fluid twin: the "
                                 f"fluid model has no {' or '.join(missing)}")
    mu_pps = topology.mu_pps
    shape = (f"symmetric n={len(mu_pps)} share={point.share_pps:g}"
             if len(set(mu_pps)) == 1 else f"restricted{point.distinctions()}")
    rtt = 2.0 * (ACCESS_DELAY + topology.branch_delay)
    branches = range(len(mu_pps))
    return FluidSpec(
        name=f"{shape} buf={topology.buffer_pkts}",
        bottlenecks=tuple(
            scaled_bottleneck(mu_pps[b], float(topology.buffer_pkts),
                              topology.gateway, label=f"branch-{b}")
            for b in branches
        ),
        tcp_cohorts=tuple(TcpCohortSpec(1, rtt, b) for b in branches),
        rla_cohorts=tuple(RlaCohortSpec(1, rtt, b) for b in branches),
        duration=point.duration,
        warmup=point.warmup,
        seed=point.seed,
    ).validate()


def symmetric_fluid_spec(
    n_receivers: int,
    share_pps: float,
    buffer_pkts: int,
    duration: float,
    warmup: float,
    seed: int,
    gateway: str,
) -> FluidSpec:
    """Fluid twin of :func:`repro.experiments.sweeps.symmetric_point`."""
    from ..experiments.sweeps import symmetric_point

    return restricted_fluid_spec(symmetric_point(
        n_receivers, share_pps, buffer_pkts, duration, warmup, seed, gateway))


def run_symmetric_fluid_spec(spec: Any) -> Dict[str, Any]:
    """Integrate one figure 1 run's twin and return its row.

    ``spec.point`` is the run the packet backend would simulate.  The
    row is shaped like the packet sweep's
    (:func:`repro.experiments.sweeps.run_symmetric_spec`) — same fairness
    columns, so :func:`repro.experiments.sweeps.format_sweep` renders
    either backend — plus ``backend: "fluid"``.
    """
    point = spec.point
    row = run_fluid(restricted_fluid_spec(point))
    return {
        "n_receivers": point.n_receivers,
        "share_pps": point.share_pps,
        "buffer_pkts": point.buffer_pkts,
        "backend": "fluid",
        "rla_pps": row["rla_pps"],
        "rla_cwnd": row["rla_window"],
        "wtcp_pps": row["wtcp_pps"],
        **fairness_columns(row["rla_pps"], row["wtcp_pps"],
                           point.n_receivers, point.gateway),
        "num_trouble": point.n_receivers,
        "sim_stats": row["sim_stats"],
    }


# ----------------------------------------------------------------------
# RTT-cohort dumbbell — the grid / population-scaling backend
# ----------------------------------------------------------------------
def cohort_fluid_spec(
    cell: ScenarioSpec, scale: float = 1.0, name: str = "",
) -> FluidSpec:
    """Fluid twin of an RTT-cohort dumbbell cell, scalable to 10⁶.

    The cell's ``traffic.tcp_flows`` and ``receivers`` split evenly
    across the fast and slow cohorts (the expectation of the packet
    scenario's random placement); ``scale`` multiplies populations,
    capacity and buffer together so the per-flow operating point is
    invariant — a ``scale=250_000`` cell is the 10⁶-flow version of the
    same physics.  Access-delay jitter is averaged away (its mean
    multiplier is 1).
    """
    topology = cell.topology.validate()
    tcp_flows = cell.traffic.tcp_flows
    fast_flows = (tcp_flows + 1) // 2
    slow_flows = tcp_flows - fast_flows
    fast_recv = (cell.receivers + 1) // 2
    slow_recv = cell.receivers - fast_recv
    bottleneck = scaled_bottleneck(
        capacity_pps=bps_to_pps(mbps(topology.bottleneck_mbps)),
        buffer_pkts=float(topology.buffer_pkts),
        discipline=cell.gateway,
        scale=scale,
    )
    base_delay = ms(topology.source_delay_ms) + ms(topology.bottleneck_delay_ms)
    fast_rtt = 2.0 * (base_delay + ms(topology.fast_delay_ms))
    slow_rtt = 2.0 * (base_delay + ms(topology.slow_delay_ms))

    def scaled(count: int) -> int:
        return max(1, round(count * scale)) if count > 0 else 0

    tcp_cohorts = tuple(
        TcpCohortSpec(scaled(count), rtt, 0, label)
        for count, rtt, label in ((fast_flows, fast_rtt, "fast"),
                                  (slow_flows, slow_rtt, "slow"))
        if count > 0
    )
    rla_cohorts = tuple(
        RlaCohortSpec(scaled(count), rtt, 0, label)
        for count, rtt, label in ((fast_recv, fast_rtt, "fast"),
                                  (slow_recv, slow_rtt, "slow"))
        if count > 0
    )
    return FluidSpec(
        name=name or f"cohorts {cell.gateway} scale={scale:g}",
        bottlenecks=(bottleneck,),
        tcp_cohorts=tcp_cohorts,
        rla_cohorts=rla_cohorts,
        duration=cell.duration,
        warmup=cell.warmup,
        seed=cell.seed,
    ).validate()
