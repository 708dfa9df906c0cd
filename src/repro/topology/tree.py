"""The four-level tertiary tree of figure 6.

Node naming follows the paper: the sender ``S`` at the root, gateway
``G1`` below it, then ``G21..G23``, then ``G31..G39``, and the 27 leaf
receivers ``R1..R27``.  Link names carry the level and order: ``L1`` is
``S-G1``, ``L2i`` is ``G1-G2i``, ``L3i`` is ``G2(ceil(i/3))-G3i`` and
``L4i`` is ``G3(ceil(i/3))-Ri``.

Default parameters are the §5 settings: 5 ms one-way delay on the first
three levels, 100 ms on level four, 100 Mbps on every non-bottleneck link,
20-packet buffers everywhere, RED thresholds 5/15 where RED is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import TopologyError
from ..units import mbps, ms

if TYPE_CHECKING:
    from ..net.network import Network
    from ..sim.engine import Simulator

#: One-way propagation delays per level (seconds), §5.
LEVEL_DELAYS = (ms(5), ms(5), ms(5), ms(100))

#: Speed of every non-bottleneck link, §5.
DEFAULT_BANDWIDTH = mbps(100)

#: Packets of buffer at every gateway, §5.
BUFFER_PKTS = 20


def _parent_g3(i: int) -> str:
    return f"G3{(i + 2) // 3}"


def _parent_g2(i: int) -> str:
    return f"G2{(i + 2) // 3}"


@dataclass
class TreeInfo:
    """Structure metadata for a built tertiary tree."""

    #: link name -> (upstream node, downstream node)
    links: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: link name -> leaf receivers whose sender path crosses it
    leaves_below: Dict[str, List[str]] = field(default_factory=dict)
    #: all leaf receiver node ids, R1..R27 in order
    leaves: List[str] = field(default_factory=list)
    #: level-3 gateway node ids, G31..G39 (extra receivers in figure 10)
    level3: List[str] = field(default_factory=list)
    root: str = "S"

    def endpoints(self, link_name: str) -> Tuple[str, str]:
        """(upstream, downstream) node pair of a named link."""
        try:
            return self.links[link_name]
        except KeyError:
            raise TopologyError(f"unknown link {link_name!r}") from None

    def receivers_below(self, link_name: str, receivers: List[str]) -> List[str]:
        """Members of ``receivers`` whose path from S crosses ``link_name``."""
        down = self.endpoints(link_name)[1]
        subtree = self._subtree(down)
        return [r for r in receivers if r in subtree]

    def _subtree(self, node: str) -> set:
        nodes = {node}
        frontier = [node]
        children: Dict[str, List[str]] = {}
        for name, (up, down) in self.links.items():
            children.setdefault(up, []).append(down)
        while frontier:
            current = frontier.pop()
            for child in children.get(current, ()):
                if child not in nodes:
                    nodes.add(child)
                    frontier.append(child)
        return nodes

    def level_of(self, link_name: str) -> int:
        """Tree level (1-4) encoded in the link name."""
        if link_name == "L1":
            return 1
        return int(link_name[1])


def tree_link_names() -> List[str]:
    """All 40 link names of the figure 6 tree, root first."""
    names = ["L1"]
    names += [f"L2{i}" for i in range(1, 4)]
    names += [f"L3{i}" for i in range(1, 10)]
    names += [f"L4{i}" for i in range(1, 28)]
    return names


def static_tree_info() -> TreeInfo:
    """The figure 6 tree's metadata without building a network.

    Useful for computing case bandwidths and congestion tiers before (or
    without) instantiating a simulator.
    """
    info = TreeInfo()
    info.links["L1"] = ("S", "G1")
    for i in range(1, 4):
        info.links[f"L2{i}"] = ("G1", f"G2{i}")
    for i in range(1, 10):
        info.links[f"L3{i}"] = (_parent_g2(i), f"G3{i}")
        info.level3.append(f"G3{i}")
    for i in range(1, 28):
        info.links[f"L4{i}"] = (_parent_g3(i), f"R{i}")
        info.leaves.append(f"R{i}")
    for name in info.links:
        info.leaves_below[name] = info.receivers_below(name, info.leaves)
    return info


def build_tertiary_tree(
    sim: Simulator,
    gateway: str = "droptail",
    link_bandwidths: Optional[Dict[str, float]] = None,
    info: Optional[TreeInfo] = None,
) -> Tuple[Network, TreeInfo]:
    """Build the figure 6 network; returns the network and its metadata.

    ``gateway`` is a :class:`~repro.net.network.GatewayFactory` name;
    at the paper's 20-packet buffer its RED thresholds are the paper's 5/15.
    ``link_bandwidths`` overrides individual links (by name) to create the
    bottlenecks of each experiment case; all other links run at 100 Mbps.
    ``info`` is :func:`static_tree_info`'s result, for a caller that
    already holds it.
    """
    from ..net.network import GatewayFactory, Network

    factory = GatewayFactory(gateway, sim, BUFFER_PKTS)
    if info is None:
        info = static_tree_info()
    overrides = link_bandwidths or {}
    unknown = set(overrides) - set(info.links)
    if unknown:
        raise TopologyError(f"bandwidth overrides for unknown links: {sorted(unknown)}")

    net = Network(sim, default_queue=factory)
    for name, (up, down) in info.links.items():
        net.add_link(up, down, overrides.get(name, DEFAULT_BANDWIDTH),
                     LEVEL_DELAYS[info.level_of(name) - 1])
    net.build_routes()
    return net, info
