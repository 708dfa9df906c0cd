"""Fluid twins of the packet experiment surfaces.

The fluid backend earns its keep by sliding in *behind* existing
experiments, so every adapter here mirrors one packet-side builder
exactly — same capacities, buffers, RED parameterization
(:func:`scaled_bottleneck`) and RTTs — and differs only in being a
population description:

* :func:`symmetric_fluid_spec` twins the figure 1 restricted topology
  of :func:`repro.topology.restricted.build_restricted`, one branch
  bottleneck per receiver, which is what ``repro-rla sweep --backend
  fluid`` integrates instead of simulating;
* :func:`cohort_fluid_spec` twins the fast/slow
  :class:`repro.scenarios.topologies.RttCohortTopology` dumbbell, with
  a ``scale`` knob that multiplies populations *and* capacity together
  — the road to the 10⁵–10⁶-flow grid and fairness figures, where the
  ODE state stays O(cohorts) no matter how many flows a cohort holds.

Scaling keeps the *per-flow* operating point fixed (share, RTT, loss),
so a 10⁶-flow cell is the same physics as its 8-flow packet twin; the
RED averaging gain follows the mean-field scaling ``w_q ∝ 1/scale``
(:func:`mean_field_w_q`), the many-flows limit under which McDonald &
Reynier derive the averaged-queue ODE — and, practically, what keeps
``w_q · A · dt`` bounded so the fixed-step RK4 stays stable.
"""

from __future__ import annotations

from typing import Any, Dict

from ..models.fairness import fairness_columns
from ..net.red import W_Q, red_thresholds
from ..scenarios.topologies import RttCohortTopology
from ..topology.restricted import ACCESS_DELAY, BRANCH_DELAY
from ..units import bps_to_pps, mbps, ms
from .runner import run_fluid
from .spec import BottleneckSpec, FluidSpec, RlaCohortSpec, TcpCohortSpec

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
# symmetric restricted topology (figure 1) — the sweeps backend
# ----------------------------------------------------------------------
def symmetric_fluid_spec(
    n_receivers: int,
    share_pps: float,
    buffer_pkts: int,
    duration: float,
    warmup: float,
    seed: int,
    gateway: str,
) -> FluidSpec:
    """Fluid twin of one symmetric sweep point.

    ``n_receivers`` branch bottlenecks of capacity ``2 * share_pps``
    (one TCP flow plus the multicast copy per branch, as in
    :func:`repro.experiments.sweeps.symmetric_point`), every branch at
    the same RTT, each a :func:`scaled_bottleneck` at scale 1 — the
    restricted topology's gateways at any buffer.
    """
    rtt = 2.0 * (ACCESS_DELAY + BRANCH_DELAY)
    bottlenecks = tuple(
        scaled_bottleneck(2.0 * share_pps, float(buffer_pkts), gateway,
                          label=f"branch-{b}")
        for b in range(n_receivers)
    )
    return FluidSpec(
        name=f"symmetric n={n_receivers} share={share_pps:g}"
             f" buf={buffer_pkts}",
        bottlenecks=bottlenecks,
        tcp_cohorts=tuple(TcpCohortSpec(1, rtt, b)
                          for b in range(n_receivers)),
        rla_cohorts=tuple(RlaCohortSpec(1, rtt, b)
                          for b in range(n_receivers)),
        duration=duration,
        warmup=warmup,
        seed=seed,
    ).validate()


def run_symmetric_fluid_spec(spec: Any) -> Dict[str, Any]:
    """Integrate one symmetric sweep point and return its row.

    ``spec.point`` is the point the packet backend would simulate.  The
    row is shaped like the packet sweep's
    (:func:`repro.experiments.sweeps.run_symmetric_spec`) — same fairness
    columns, so :func:`repro.experiments.sweeps.format_sweep` renders
    either backend — plus ``backend: "fluid"``.
    """
    point = spec.point
    row = run_fluid(symmetric_fluid_spec(
        n_receivers=point.n_receivers,
        share_pps=point.share_pps,
        buffer_pkts=point.buffer_pkts,
        duration=point.duration,
        warmup=point.warmup,
        seed=point.seed,
        gateway=point.gateway,
    ))
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
#: Source-feed one-way delay of the packet RTT-cohort builder.
COHORT_SOURCE_DELAY = ms(1)


def cohort_fluid_spec(
    topology: RttCohortTopology,
    gateway: str,
    tcp_flows: int = 4,
    receivers: int = 4,
    duration: float = 20.0,
    warmup: float = 5.0,
    seed: int = 1,
    scale: float = 1.0,
    name: str = "",
) -> FluidSpec:
    """Fluid twin of an RTT-cohort dumbbell scenario, scalable to 10⁶.

    ``tcp_flows`` and ``receivers`` split evenly across the fast and
    slow cohorts (the expectation of the packet scenario's random
    placement); ``scale`` multiplies populations, capacity and buffer
    together so the per-flow operating point is invariant — a
    ``scale=250_000`` cell is the 10⁶-flow version of the same physics.
    Access-delay jitter is averaged away (its mean multiplier is 1).
    """
    topology.validate()
    fast_flows = (tcp_flows + 1) // 2
    slow_flows = tcp_flows - fast_flows
    fast_recv = (receivers + 1) // 2
    slow_recv = receivers - fast_recv
    bottleneck = scaled_bottleneck(
        capacity_pps=bps_to_pps(mbps(topology.bottleneck_mbps)),
        buffer_pkts=float(topology.buffer_pkts),
        discipline=gateway,
        scale=scale,
    )
    base_delay = COHORT_SOURCE_DELAY + ms(topology.bottleneck_delay_ms)
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
        name=name or f"cohorts {gateway} scale={scale:g}",
        bottlenecks=(bottleneck,),
        tcp_cohorts=tcp_cohorts,
        rla_cohorts=rla_cohorts,
        duration=duration,
        warmup=warmup,
        seed=seed,
    ).validate()
