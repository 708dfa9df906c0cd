"""The restricted topology of figure 1.

One sender ``S``, a shared gateway ``G``, and ``N`` receivers, each behind
its own virtual-link bottleneck of capacity ``mu_i`` shared with ``m_i``
background TCP connections.  This is the topology on which the paper
*defines* soft bottleneck / absolute / essential fairness, and it is what
the fairness unit tests and the quickstart example use — small enough to
reason about exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..errors import TopologyError
from ..units import DEFAULT_PACKET_SIZE, mbps, ms, pps_to_bps

if TYPE_CHECKING:
    from ..net.network import Network
    from ..sim.engine import Simulator


@dataclass
class RestrictedSpec:
    """Parameters of a figure 1 topology.

    ``mu_pps[i]`` is branch i's bottleneck capacity in packets/second and
    ``m[i]`` its number of background TCP connections.  The common access
    link S-G is non-bottleneck (100 Mbps) and all branches share the same
    propagation delay so round-trip times are equal, as §2.2 requires.
    """

    mu_pps: Sequence[float]
    m: Sequence[int]
    branch_delay: float = ms(50)
    access_delay: float = ms(5)
    gateway: str = "droptail"
    buffer_pkts: int = 20
    packet_size: int = DEFAULT_PACKET_SIZE

    def validate(self) -> "RestrictedSpec":
        if not self.mu_pps:
            raise TopologyError("restricted topology needs at least one branch")
        if len(self.mu_pps) != len(self.m):
            raise TopologyError("mu_pps and m must have equal length")
        if any(mu <= 0 for mu in self.mu_pps):
            raise TopologyError("branch capacities must be positive")
        if any(count < 0 for count in self.m):
            raise TopologyError("TCP counts must be non-negative")
        if self.gateway not in ("droptail", "red"):
            raise TopologyError(f"unknown gateway type {self.gateway!r}")
        return self


def build_restricted(
    sim: Simulator, spec: RestrictedSpec
) -> Tuple[Network, List[str]]:
    """Build the figure 1 network; returns (network, receiver node ids)."""
    from ..net.network import Network, droptail_factory, red_factory

    spec.validate()
    if spec.gateway == "red":
        factory = red_factory(sim, capacity=spec.buffer_pkts)
    else:
        factory = droptail_factory(spec.buffer_pkts)
    net = Network(sim, default_queue=factory)
    # The shared access link never bottlenecks; give it a deep buffer so
    # it cannot distort the per-branch loss processes under study.
    net.add_link("S", "G", mbps(100), spec.access_delay,
                 queue_factory=droptail_factory(1000))
    receivers = []
    for index, mu in enumerate(spec.mu_pps, start=1):
        receiver = f"R{index}"
        receivers.append(receiver)
        net.add_link("G", receiver, pps_to_bps(mu, spec.packet_size),
                     spec.branch_delay, queue_factory=factory)
    net.build_routes()
    return net, receivers
