"""The network builder: nodes + links + routing in one object.

Typical use::

    net = Network(sim)
    net.add_link("S", "G1", bandwidth_bps=mbps(100), delay_s=ms(5))
    ...
    net.build_routes()
    net.join_group("group:rla", source="S", members=["R1", "R2"])

Links are bidirectional by default (two independent :class:`Link` objects,
each with its own gateway queue), matching NS2 duplex links.  Unicast routes
are delay-weighted shortest paths computed by :mod:`repro.net.routing`
(which fixes the tie-break between equal-cost paths) and installed as
static per-destination next hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import TopologyError
from ..sim.engine import Simulator
from ..units import DEFAULT_PACKET_SIZE
from .codel import CoDelQueue
from .droptail import DropTailQueue
from .link import Link
from .multicast import shortest_path_tree
from .node import Node
from .pie import PIEQueue
from .queue import GATEWAY_DISCIPLINES, Gateway
from .red import AdaptiveREDQueue, REDQueue, red_thresholds
from .routing import Adjacency, ShortestPaths, add_edge, dijkstra, walk

#: A factory receives the directed link name (e.g. "S->G1") and returns a
#: fresh gateway for that direction.
QueueFactory = Callable[[str], Gateway]


@dataclass(frozen=True)
class GatewayFactory:
    """The one picklable queue factory: a discipline name and a buffer.

    A class rather than a closure so a built :class:`Network` (which keeps
    its ``default_queue`` factory) stays picklable for
    :mod:`repro.checkpoint` snapshots.  RED variants take their thresholds
    from :func:`~repro.net.red.red_thresholds` of ``capacity`` (byte-mode
    RED scales them by ``mean_packet_size``) and draw from ``red.<name>``;
    PIE draws from ``pie.<name>``; CoDel and PIE use their RFC default
    targets.  ``mark_ecn`` applies to every discipline except drop-tail,
    which has no early-notification mechanism to piggyback a mark on.
    """

    discipline: str
    sim: Simulator
    capacity: int = 20
    mark_ecn: bool = False
    mean_packet_size: int = DEFAULT_PACKET_SIZE

    def __post_init__(self) -> None:
        if self.discipline not in GATEWAY_DISCIPLINES:
            raise TopologyError(
                f"unknown queue discipline {self.discipline!r}; "
                f"expected one of {GATEWAY_DISCIPLINES}"
            )

    def __call__(self, name: str) -> Gateway:
        discipline = self.discipline
        if discipline == "droptail":
            return DropTailQueue(self.capacity)
        if discipline == "codel":
            return CoDelQueue(self.capacity, mark_ecn=self.mark_ecn)
        if discipline == "pie":
            rng = self.sim.rng.stream(f"pie.{name}")
            return PIEQueue(self.capacity, rng=rng, mark_ecn=self.mark_ecn)
        min_th, max_th = red_thresholds(self.capacity)
        byte_mode = discipline == "red-byte"
        if byte_mode:
            min_th *= self.mean_packet_size
            max_th *= self.mean_packet_size
        cls = AdaptiveREDQueue if discipline == "red-adaptive" else REDQueue
        return cls(
            capacity=self.capacity,
            min_th=min_th,
            max_th=max_th,
            rng=self.sim.rng.stream(f"red.{name}"),
            mark_ecn=self.mark_ecn,
            byte_mode=byte_mode,
            mean_packet_size=self.mean_packet_size,
        )


#: Kept under its old name for ``benchmarks/rlabench/micro.py``, which
#: imports it from here and may not change with this module.
discipline_factory = GatewayFactory


@dataclass
class GroupState:
    """Live membership of one multicast group (source + ordered members)."""

    source: str
    members: List[str] = field(default_factory=list)


class Network:
    """Container wiring nodes and links onto one simulator."""

    def __init__(
        self,
        sim: Simulator,
        default_queue: Optional[QueueFactory] = None,
        mean_packet_size: int = DEFAULT_PACKET_SIZE,
    ) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        #: directed ("a", "b") -> Link
        self.links: Dict[Tuple[str, str], Link] = {}
        self.default_queue: QueueFactory = default_queue or GatewayFactory("droptail", sim)
        #: Mean packet size links are provisioned for (RED idle aging and
        #: byte-mode scaling); mixed-size scenarios set their configured
        #: mean here once instead of per add_link call.
        self.mean_packet_size = mean_packet_size
        #: node -> {neighbour: one-way delay}, in link-insertion order
        self.graph: Adjacency = {}
        #: group address -> :class:`GroupState`; maintained by
        #: :meth:`join_group` / :meth:`add_member` / :meth:`leave_group`
        self.groups: Dict[str, GroupState] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: str) -> Node:
        """Create (or fetch) the node named ``node_id``."""
        node = self.nodes.get(node_id)
        if node is None:
            node = Node(node_id)
            self.nodes[node_id] = node
            self.graph.setdefault(node_id, {})
        return node

    def node(self, node_id: str) -> Node:
        """Fetch an existing node, raising for unknown ids."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None

    def add_link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float,
        delay_s: float,
        queue_factory: Optional[QueueFactory] = None,
        bidirectional: bool = True,
        mean_packet_size: Optional[int] = None,
    ) -> Tuple[Link, Optional[Link]]:
        """Connect ``a`` and ``b``; returns the (a->b, b->a) links."""
        if (a, b) in self.links:
            raise TopologyError(f"duplicate link {a}->{b}")
        make_queue = queue_factory or self.default_queue
        pkt_size = mean_packet_size or self.mean_packet_size
        node_a, node_b = self.add_node(a), self.add_node(b)
        forward = Link(
            self.sim, f"{a}->{b}", node_a, node_b, bandwidth_bps, delay_s,
            make_queue(f"{a}->{b}"), mean_packet_size=pkt_size,
        )
        self.links[(a, b)] = forward
        reverse: Optional[Link] = None
        if bidirectional:
            reverse = Link(
                self.sim, f"{b}->{a}", node_b, node_a, bandwidth_bps, delay_s,
                make_queue(f"{b}->{a}"), mean_packet_size=pkt_size,
            )
            self.links[(b, a)] = reverse
        add_edge(self.graph, a, b, delay_s)
        return forward, reverse

    def link(self, a: str, b: str) -> Link:
        """The directed link a->b, raising for unknown pairs."""
        try:
            return self.links[(a, b)]
        except KeyError:
            raise TopologyError(f"no link {a}->{b}") from None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """Compute delay-weighted shortest paths; install static next hops."""
        for src, node in self.nodes.items():
            for dst, hop in dijkstra(self.graph, src).first_hop.items():
                if hop is not None:
                    node.add_route(dst, self.links[(src, hop)])

    def join_group(self, group: str, source: str, members: Iterable[str]) -> List[str]:
        """Build the multicast tree for ``group`` rooted at ``source``.

        Installs forwarding entries along delay-weighted shortest paths and
        registers each member's local membership.  Returns the member list.

        Idempotent: calling again for the same group *replaces* the tree —
        stale forwarding entries and memberships from the previous call are
        torn down first, so a double join never stacks duplicate branches
        (and never double-delivers), and a re-join with a smaller member
        set prunes the branches the departed members needed.
        """
        members = list(dict.fromkeys(members))  # dedupe, keep order
        state = self.groups.get(group)
        if state is not None:
            if state.source == source and state.members == members:
                return list(members)  # exact repeat: nothing to do
            self._teardown_group(group)
        self.groups[group] = GroupState(source, list(members))
        self._install_group(group)
        return members

    def _teardown_group(self, group: str) -> None:
        """Remove every forwarding entry and membership of ``group``."""
        for node in self.nodes.values():
            node.clear_mcast_routes(group)
            node.leave(group)

    def _install_group(self, group: str) -> None:
        """(Re)install the shortest-path tree for the group's current state."""
        state = self.groups[group]
        if not state.members:
            return  # a group everyone has left forwards nothing
        children = shortest_path_tree(self.graph, state.source, state.members)
        for parent, kids in children.items():
            parent_node = self.node(parent)
            for child in kids:
                parent_node.add_mcast_route(group, self.links[(parent, child)])
        for member in state.members:
            self.node(member).join(group)

    def _rebuild_group(self, group: str) -> None:
        self._teardown_group(group)
        self._install_group(group)

    def add_member(self, group: str, member: str) -> None:
        """Graft ``member`` onto an existing group's tree (late join).

        The whole tree is recomputed from the new member set — matching a
        dense-mode protocol reconverging — so forwarding state after a
        join is identical to what :meth:`join_group` would have installed
        for that member set.  No-op if already a member.
        """
        state = self._group_state(group)
        if member in state.members:
            return
        self.node(member)  # raise early for unknown nodes
        state.members.append(member)
        self._rebuild_group(group)

    def leave_group(self, group: str, member: str) -> None:
        """Prune ``member`` from a group's tree (leave / receiver churn).

        Branches that only existed to reach the departed member are torn
        down; shared branches survive.  Packets already queued on a pruned
        branch still drain and are sunk downstream.  No-op for non-members.
        """
        state = self._group_state(group)
        if member not in state.members:
            return
        state.members.remove(member)
        self._rebuild_group(group)

    def group_members(self, group: str) -> List[str]:
        """Current member list of ``group`` (copy, in join order)."""
        return list(self._group_state(group).members)

    def _group_state(self, group: str) -> GroupState:
        try:
            return self.groups[group]
        except KeyError:
            raise TopologyError(f"unknown multicast group {group!r}") from None

    # ------------------------------------------------------------------
    def _routed(self, a: str, b: str) -> ShortestPaths:
        """The single-source run from ``a``, checked to reach ``b``."""
        self.node(a)  # unknown names raise TopologyError
        self.node(b)
        run = dijkstra(self.graph, a)
        if b not in run.dist:
            raise TopologyError(f"no path {a}->{b}")
        return run

    def path_delay(self, a: str, b: str) -> float:
        """One-way propagation delay along the routed path a->b."""
        return self._routed(a, b).dist[b]

    def path(self, a: str, b: str) -> List[str]:
        """Node sequence of the routed path a->b."""
        return walk(self._routed(a, b).pred, a, b)

    def __repr__(self) -> str:
        return f"Network(nodes={len(self.nodes)}, links={len(self.links)})"
