"""Deterministic dumbbell topology for fluid cross-validation.

One source ``S``, a single shared bottleneck ``GL == GR`` running the
discipline under study, and per-cohort host fan-outs on fast access
links — the canonical many-flows-one-queue shape the mean-field limit
describes.  Unlike the generative scenario topologies this builder has
*no* randomness (no jitter, no placement draws): host RTTs are exact
functions of the spec, so a packet-level run and its fluid twin
(:func:`repro.fluid.crossval.crossval_case`) describe the same system
and their disagreement measures model error, not workload noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Tuple

from ..errors import TopologyError
from ..units import DEFAULT_PACKET_SIZE, mbps, ms, pps_to_bps

if TYPE_CHECKING:
    from ..net.network import Network
    from ..sim.engine import Simulator

#: Deep source-side and access-side buffers: only the bottleneck drops.
SOURCE_BUFFER_PKTS = 1000
ACCESS_BUFFER_PKTS = 200
#: One-way delays of the source link S-GL and of the bottleneck GL-GR.
SOURCE_DELAY = ms(1)
BOTTLENECK_DELAY = ms(1)
#: Host access links: far above any bottleneck the cases build.
ACCESS_MBPS = 100.0
#: Bytes per data packet: the bottleneck capacity is given in these.
PACKET_SIZE = DEFAULT_PACKET_SIZE


@dataclass(frozen=True)
class DumbbellCohort:
    """A group of hosts sharing one access one-way propagation delay."""

    hosts: int
    access_delay: float
    label: str = ""

    def validate(self) -> "DumbbellCohort":
        """Check counts and delay; returns self for chaining."""
        if self.hosts < 1:
            raise TopologyError(f"cohort needs >= 1 host: {self.hosts}")
        if self.access_delay < 0:
            raise TopologyError(
                f"negative access delay: {self.access_delay}"
            )
        return self


@dataclass(frozen=True)
class DumbbellSpec:
    """Parameters of the cross-validation dumbbell.

    ``capacity_pps`` is the bottleneck speed in data packets/second;
    every other link is provisioned far above it.  ``gateway`` is any
    discipline :class:`repro.net.network.GatewayFactory` knows (the
    fluid twin supports drop-tail and RED).
    """

    capacity_pps: float
    cohorts: Tuple[DumbbellCohort, ...]
    buffer_pkts: int = 25
    gateway: str = "droptail"

    def validate(self) -> "DumbbellSpec":
        """Check the spec tree; returns self for chaining."""
        if self.capacity_pps <= 0:
            raise TopologyError(
                f"bottleneck capacity must be positive: {self.capacity_pps}"
            )
        if not self.cohorts:
            raise TopologyError("dumbbell needs at least one cohort")
        for cohort in self.cohorts:
            cohort.validate()
        if self.buffer_pkts < 2:
            raise TopologyError(f"buffer too small: {self.buffer_pkts}")
        return self

    def host_rtt(self, cohort_index: int) -> float:
        """Propagation RTT source->cohort host, plus one bottleneck
        transmission time (the serialization a fluid model cannot see as
        queueing).  Queueing delay is on top of this."""
        cohort = self.cohorts[cohort_index]
        prop = 2.0 * (SOURCE_DELAY + BOTTLENECK_DELAY + cohort.access_delay)
        return prop + 1.0 / self.capacity_pps


def build_dumbbell(
    sim: Simulator, spec: DumbbellSpec
) -> Tuple[Network, List[List[str]]]:
    """Build the dumbbell; returns ``(network, hosts per cohort)``.

    Host ids are ``"H{cohort}_{index}"`` in deterministic order.  Only
    the ``GL == GR`` bottleneck runs the studied discipline; the source
    and access links are deep drop-tail queues that never drop.
    """
    from ..net.network import GatewayFactory, Network

    spec.validate()
    factory = GatewayFactory(spec.gateway, sim, spec.buffer_pkts,
                             mean_packet_size=PACKET_SIZE)
    access = GatewayFactory("droptail", sim, ACCESS_BUFFER_PKTS)
    net = Network(sim, default_queue=access, mean_packet_size=PACKET_SIZE)
    net.add_link("S", "GL", mbps(100), SOURCE_DELAY,
                 queue_factory=replace(access, capacity=SOURCE_BUFFER_PKTS))
    net.add_link("GL", "GR", pps_to_bps(spec.capacity_pps, PACKET_SIZE),
                 BOTTLENECK_DELAY, queue_factory=factory)
    cohort_hosts: List[List[str]] = []
    for c, cohort in enumerate(spec.cohorts):
        hosts = []
        for i in range(cohort.hosts):
            host = f"H{c}_{i}"
            net.add_link("GR", host, mbps(ACCESS_MBPS),
                         cohort.access_delay)
            hosts.append(host)
        cohort_hosts.append(hosts)
    net.build_routes()
    return net, cohort_hosts
