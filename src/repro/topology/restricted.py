"""The restricted topology of figure 1.

One sender ``S``, a shared gateway ``G``, and ``N`` receivers, each behind
its own virtual-link bottleneck of capacity ``mu_i`` shared with ``m_i``
background TCP connections (the caller attaches those).  This is the
topology on which the paper *defines* soft bottleneck / absolute /
essential fairness, and it is what the fairness unit tests and the
quickstart example use — small enough to reason about exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..errors import TopologyError
from ..units import DEFAULT_PACKET_SIZE, mbps, ms, pps_to_bps

if TYPE_CHECKING:
    from ..net.network import Network
    from ..sim.engine import Simulator


#: One-way delay of the shared, non-bottleneck access link S-G.
ACCESS_DELAY = ms(5)
#: Default one-way delay of each branch G-R_i (figure 5 varies it).
BRANCH_DELAY = ms(50)
#: Bytes per data packet: branch capacities are given in these (§5).
PACKET_SIZE = DEFAULT_PACKET_SIZE


@dataclass
class RestrictedSpec:
    """Parameters of a figure 1 topology.

    ``mu_pps[i]`` is branch i's bottleneck capacity in packets/second.
    The common access link S-G is non-bottleneck (100 Mbps) and all
    branches share the same propagation delay so round-trip times are
    equal, as §2.2 requires.  RED thresholds follow the buffer
    (:func:`repro.net.red.red_thresholds`): the paper's 5/15 at 20 packets.
    With ``ecn`` the branch RED gateways mark instead of dropping.
    """

    mu_pps: Sequence[float]
    gateway: str = "droptail"
    buffer_pkts: int = 20
    branch_delay: float = BRANCH_DELAY
    ecn: bool = False

    def validate(self) -> "RestrictedSpec":
        if not self.mu_pps:
            raise TopologyError("restricted topology needs at least one branch")
        if any(mu <= 0 for mu in self.mu_pps):
            raise TopologyError("branch capacities must be positive")
        if self.gateway not in ("droptail", "red"):
            raise TopologyError(f"unknown gateway type {self.gateway!r}")
        if self.ecn and self.gateway != "red":
            raise TopologyError("ECN marking needs RED branch gateways")
        if self.buffer_pkts < 2:
            raise TopologyError(f"buffer too small: {self.buffer_pkts}")
        return self


def build_restricted(
    sim: Simulator, spec: RestrictedSpec
) -> Tuple[Network, List[str]]:
    """Build the figure 1 network; returns (network, receiver node ids)."""
    from ..net.network import GatewayFactory, Network

    spec.validate()
    factory = GatewayFactory(spec.gateway, sim, spec.buffer_pkts,
                             mark_ecn=spec.ecn)
    net = Network(sim, default_queue=factory)
    # The shared access link never bottlenecks; give it a deep buffer so
    # it cannot distort the per-branch loss processes under study.
    net.add_link("S", "G", mbps(100), ACCESS_DELAY,
                 queue_factory=GatewayFactory("droptail", sim, 1000))
    receivers = []
    for index, mu in enumerate(spec.mu_pps, start=1):
        receiver = f"R{index}"
        receivers.append(receiver)
        net.add_link("G", receiver, pps_to_bps(mu, PACKET_SIZE),
                     spec.branch_delay, queue_factory=factory)
    net.build_routes()
    return net, receivers
