"""Routers/hosts: unicast forwarding, multicast replication, agent delivery.

A :class:`Node` is simultaneously a router (it owns routing tables and
forwards transit packets) and a host (transport agents *bind* flow-ids on
it and receive packets addressed to it).  This mirrors NS2, where every
node can both forward and terminate traffic — needed because the paper's
figure-10 experiment makes interior gateways G31..G39 multicast receivers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

from ..errors import RoutingError
from .addressing import GROUP_PREFIX
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .link import Link

Handler = Callable[[Packet], None]

#: Observer of packets that end their life at this node; ``outcome`` is
#: "delivered" (handed to a bound agent), "sunk" (no agent / no multicast
#: branch: silently discarded) or "replicated" (original consumed after
#: multicast fan-out made per-branch copies).
ConsumeHook = Callable[[Packet, str], None]


class Node:
    """A network node with static unicast routes and multicast fan-out."""

    def __init__(self, node_id: str) -> None:
        self.id = node_id
        #: destination node-id -> outgoing link
        self.routes: Dict[str, "Link"] = {}
        #: group address -> outgoing links toward downstream members
        self.mcast_routes: Dict[str, List["Link"]] = {}
        #: group address -> True if an agent on this node joined the group
        self.memberships: Dict[str, bool] = {}
        #: Per-group fan-out cache: group -> (deliver_locally, branches).
        #: ``branches`` is an immutable tuple snapshot of ``mcast_routes``.
        #: Built lazily on the first packet of a group and invalidated by
        #: every tree-maintenance call (join/leave/add/clear), so the
        #: per-packet multicast path is a single dict hit instead of two
        #: lookups plus list indirection.  :class:`repro.net.network.Network`
        #: rebuilds trees exclusively through those calls, which keeps this
        #: cache coherent across churn.
        self._fanout: Dict[str, Tuple[bool, Tuple["Link", ...]]] = {}
        #: flow-id -> transport agent handler
        self._agents: Dict[str, Handler] = {}
        self._consume_hooks: List[ConsumeHook] = []
        self.packets_received = 0
        self.packets_forwarded = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, flow: str, handler: Handler) -> None:
        """Register a transport agent to receive packets of ``flow``."""
        if flow in self._agents:
            raise RoutingError(f"flow {flow!r} already bound on node {self.id}")
        self._agents[flow] = handler

    def unbind(self, flow: str) -> None:
        """Remove the agent bound to ``flow`` (no-op if absent)."""
        self._agents.pop(flow, None)

    def add_route(self, dst: str, link: "Link") -> None:
        """Install/replace the unicast next-hop for ``dst``."""
        self.routes[dst] = link

    def add_mcast_route(self, group: str, link: "Link") -> None:
        """Add a downstream branch for ``group`` (idempotent per link)."""
        branches = self.mcast_routes.setdefault(group, [])
        if link not in branches:
            branches.append(link)
        self._fanout.pop(group, None)

    def join(self, group: str) -> None:
        """Mark this node as a local member of ``group``."""
        self.memberships[group] = True
        self._fanout.pop(group, None)

    def leave(self, group: str) -> None:
        """Drop local membership of ``group`` (no-op if not a member)."""
        self.memberships.pop(group, None)
        self._fanout.pop(group, None)

    def clear_mcast_routes(self, group: str) -> None:
        """Remove every downstream branch installed for ``group``.

        Used by :meth:`repro.net.network.Network.leave_group` style tree
        maintenance: the whole group tree is torn down and re-installed
        from the surviving member set.
        """
        self.mcast_routes.pop(group, None)
        self._fanout.pop(group, None)

    def on_consume(self, hook: ConsumeHook) -> None:
        """Register ``hook(packet, outcome)`` for packets that die here."""
        self._consume_hooks.append(hook)

    def _notify_consume(self, packet: Packet, outcome: str) -> None:
        for hook in self._consume_hooks:
            hook(packet, outcome)

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving from a link (or sent locally)."""
        self.packets_received += 1
        packet.hops += 1
        dst = packet.dst
        # Inlined is_multicast(dst): one startswith instead of a function
        # call — this runs once per packet per hop.
        if dst.startswith(GROUP_PREFIX):
            self._receive_multicast(packet)
        elif dst == self.id:
            self._deliver(packet)
        else:
            link = self.routes.get(dst)
            if link is None:
                raise RoutingError(f"node {self.id}: no route to {dst!r}")
            self.packets_forwarded += 1
            link.send(packet)

    def _receive_multicast(self, packet: Packet) -> None:
        group = packet.dst
        fanout = self._fanout.get(group)
        if fanout is None:
            fanout = (
                self.memberships.get(group, False),
                tuple(self.mcast_routes.get(group, ())),
            )
            self._fanout[group] = fanout
        delivered_locally, branches = fanout
        if delivered_locally:
            self._deliver(packet)
        if branches:
            self.packets_forwarded += len(branches)
            for link in branches:
                link.send(packet.copy())
        if not delivered_locally and self._consume_hooks:
            # The original is consumed here: either replaced by per-branch
            # copies, or (no members, no branches) silently discarded.
            self._notify_consume(packet, "replicated" if branches else "sunk")

    def _deliver(self, packet: Packet) -> None:
        handler = self._agents.get(packet.flow)
        if handler is None:
            # Transit flows with no agent here are silently sunk, matching
            # NS2 behaviour for traffic addressed to an unbound port.
            if self._consume_hooks:
                self._notify_consume(packet, "sunk")
            return
        if self._consume_hooks:
            self._notify_consume(packet, "delivered")
        handler(packet)

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Originate a packet from this node (route lookup + transmit)."""
        self.receive(packet)

    def __repr__(self) -> str:
        return f"Node({self.id}, routes={len(self.routes)}, flows={len(self._agents)})"
