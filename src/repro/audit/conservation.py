"""Simulation-wide packet conservation auditing.

The :class:`ConservationAuditor` follows every packet from construction to
its terminal fate through a per-uid state machine:

    created -> at node -> queued at a gateway -> in transit on a link
            -> at node -> ... -> delivered | sunk | replicated | dropped

Transitions are driven by the observability hooks of :mod:`repro.net`
(packet creation, gateway enqueue/dequeue/drop, link delivery, node
consumption), so any code path that loses, duplicates or fabricates a
packet shows up as an impossible transition (raised immediately) or as an
end-of-run imbalance (raised by :meth:`verify`):

* **per flow** — injected == delivered + sunk + replicated + dropped
  + in-flight;
* **per link** — accepted == dequeued + evicted + still queued, and the set of uids
  the auditor believes queued must equal the gateway's physical contents
  (this is what catches a packet leaked out of — or smuggled into — a
  queue without the hooks firing);
* **per gateway** — counter bookkeeping must agree with physical storage.

Auditing is opt-in (``audited=True`` on experiment specs, ``--audit`` on
the CLI): the tracked state costs a dict entry per live packet, and a hop
costs its conditions plus a flat record; only a failing check is described.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from ..net.link import Link
from ..net.network import Network
from ..net.node import Node
from ..net.packet import Packet, install_creation_hook, uninstall_creation_hook
from ..sim.engine import Simulator
from .invariants import InvariantMonitor
from .recorder import FlightRecorder

#: Per-uid lifecycle states (terminal fates are counted, not stored).
_AT_NODE = "node"
_QUEUED = "queued"
_TRANSIT = "transit"

#: (state, link name or None, flow)
_PacketState = Tuple[str, Optional[str], str]

#: Field names of the flight-recorder entries the hooks write.
_ENQUEUE_KEYS = ("link", "flow", "seq", "uid", "depth")
_DROP_KEYS = ("link", "flow", "seq", "uid", "reason")
_DELIVER_KEYS = ("link", "flow", "seq", "uid")
_CONSUME_KEYS = ("node", "flow", "seq", "uid", "outcome")


class ConservationAuditor:
    """Enforce end-of-run packet conservation per flow and per link."""

    def __init__(
        self,
        sim: Simulator,
        monitor: Optional[InvariantMonitor] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        self.sim = sim
        self.recorder = recorder
        self.monitor = monitor or InvariantMonitor(recorder)
        self._attached = False
        self._links: Dict[str, Link] = {}
        self._where: Dict[int, _PacketState] = {}
        # per-flow lifetime counters
        self.created_by_flow: Counter = Counter()
        self.delivered_by_flow: Counter = Counter()
        self.sunk_by_flow: Counter = Counter()
        self.replicated_by_flow: Counter = Counter()
        self.dropped_by_flow: Counter = Counter()
        # per-link counters: accepted / dropped / dequeued / delivered
        self.link_counts: Dict[str, Dict[str, int]] = {}
        self._fates = {"delivered": self.delivered_by_flow,
                       "sunk": self.sunk_by_flow,
                       "replicated": self.replicated_by_flow}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, net: Network) -> None:
        """Hook every gateway, link and node of ``net``; start tracking.

        Attach before any traffic starts: packets already in flight would
        surface as impossible transitions.
        """
        if self._attached:
            raise RuntimeError("auditor is already attached")
        self._attached = True
        install_creation_hook(self._on_created)
        for link in net.links.values():
            self._watch_link(link)
        for node in net.nodes.values():
            self._watch_node(node)

    def detach(self) -> None:
        """Stop observing packet creation (other hooks die with the net)."""
        if self._attached:
            uninstall_creation_hook(self._on_created)
            self._attached = False

    def disarm(self) -> None:
        """Undo :func:`arm`: release the creation hook and the engine hook."""
        self.detach()
        self.sim.event_hook = None

    def rearm(self) -> None:
        """Re-install the process-global creation hook after a restore.

        The gateway/link/node hooks travel inside the pickled object graph
        of a :mod:`repro.checkpoint` snapshot, but the packet-creation hook
        is a module global of :mod:`repro.net.packet` — it does not exist
        in the restoring process until re-installed here.  Only one
        restored world may be armed at a time (the hook is process-wide);
        :meth:`detach` releases it.
        """
        if not self._attached:
            raise RuntimeError("auditor was never attached; nothing to rearm")
        install_creation_hook(self._on_created)

    def __enter__(self) -> "ConservationAuditor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    def _watch_link(self, link: Link) -> None:
        name = link.name
        self._links[name] = link
        ledger = self.link_counts[name] = {
            "accepted": 0, "dropped": 0, "dequeued": 0, "delivered": 0,
            "evicted": 0,
        }
        # functools.partial, not lambdas: these hooks live inside the
        # network object graph, which checkpoint snapshots pickle whole.
        # Each binds the link's own ledger, so a hop costs no name lookup.
        gateway = link.gateway
        gateway.on_enqueue(partial(self._on_enqueue, name, ledger))
        gateway.on_drop(partial(self._on_drop, name, ledger))
        gateway.on_dequeue(partial(self._on_dequeue, name, ledger))
        link.on_deliver(partial(self._on_deliver, name, ledger))

    def _watch_node(self, node: Node) -> None:
        node.on_consume(partial(self._on_consume, node.id))

    # ------------------------------------------------------------------
    # lifecycle transitions (per hop: test inline, describe the hop only on
    # failure; records hold header fields captured now, never the packet)
    # ------------------------------------------------------------------
    def _on_created(self, packet: Packet) -> None:
        uid = packet.uid
        flow = packet.flow
        self.monitor.checks_run += 1
        if uid in self._where:
            self.monitor.violate("conservation.unique_uid", self.sim.now,
                                 uid=uid, flow=flow)
        self._where[uid] = (_AT_NODE, None, flow)
        self.created_by_flow[flow] += 1

    def _on_enqueue(self, link: str, ledger: Dict[str, int], now: float,
                    packet: Packet, depth: int) -> None:
        uid = packet.uid
        flow = packet.flow
        state = self._where.get(uid)
        if self.recorder is not None:
            self.recorder.note(self.sim.now, "enqueue", _ENQUEUE_KEYS,
                               (link, flow, packet.seq, uid, depth))
        self.monitor.checks_run += 1
        if state is None or state[0] != _AT_NODE:
            self.monitor.violate("conservation.enqueue_from_node", now,
                                 link=link, uid=uid, flow=flow, state=state)
        self._where[uid] = (_QUEUED, link, flow)
        ledger["accepted"] += 1

    def _on_drop(self, link: str, ledger: Dict[str, int], now: float,
                 packet: Packet, reason: str) -> None:
        uid = packet.uid
        flow = packet.flow
        state = self._where.pop(uid, None)
        if self.recorder is not None:
            self.recorder.note(self.sim.now, "drop", _DROP_KEYS,
                               (link, flow, packet.seq, uid, reason))
        # Most disciplines drop arrivals (_AT_NODE pre-state), but an
        # evicting discipline — CoDel's drop-at-dequeue — legally drops a
        # packet it had already queued, so both pre-states are accepted;
        # the queued case is additionally tallied as an eviction so the
        # link balance can account for packets that entered the queue but
        # never came out the front.
        self.monitor.checks_run += 1
        if state is None or state[0] not in (_AT_NODE, _QUEUED):
            self.monitor.violate("conservation.drop_alive", now,
                                 link=link, uid=uid, flow=flow, state=state)
        if state is not None and state[0] == _QUEUED and state[1] is not None:
            self.link_counts[state[1]]["evicted"] += 1
        self.dropped_by_flow[flow] += 1
        ledger["dropped"] += 1

    def _on_dequeue(self, link: str, ledger: Dict[str, int], now: float,
                    packet: Packet) -> None:
        uid = packet.uid
        flow = packet.flow
        state = self._where.get(uid)
        self.monitor.checks_run += 1
        if state != (_QUEUED, link, flow):
            self.monitor.violate("conservation.dequeue_from_queue", now,
                                 link=link, uid=uid, flow=flow, state=state)
        self._where[uid] = (_TRANSIT, link, flow)
        ledger["dequeued"] += 1

    def _on_deliver(self, link: str, ledger: Dict[str, int], now: float,
                    packet: Packet) -> None:
        uid = packet.uid
        flow = packet.flow
        state = self._where.get(uid)
        if self.recorder is not None:
            self.recorder.note(self.sim.now, "deliver", _DELIVER_KEYS,
                               (link, flow, packet.seq, uid))
        # A second delivery of the same uid fails here: the packet is no
        # longer in transit on this link (it is at a node, or terminal).
        self.monitor.checks_run += 1
        if state != (_TRANSIT, link, flow):
            self.monitor.violate("conservation.single_delivery", now,
                                 link=link, uid=uid, flow=flow, state=state)
        self._where[uid] = (_AT_NODE, None, flow)
        ledger["delivered"] += 1

    def _on_consume(self, node: str, packet: Packet, outcome: str) -> None:
        now = self.sim.now
        uid = packet.uid
        flow = packet.flow
        state = self._where.pop(uid, None)
        if self.recorder is not None:
            self.recorder.note(now, "consume", _CONSUME_KEYS,
                               (node, flow, packet.seq, uid, outcome))
        self.monitor.checks_run += 1
        if state is None or state[0] != _AT_NODE:
            self.monitor.violate("conservation.consume_once", now, node=node,
                                 uid=uid, flow=flow, outcome=outcome,
                                 state=state)
        counter = self._fates.get(outcome)
        self.monitor.checks_run += 1
        if counter is None:
            self.monitor.violate("conservation.known_outcome", now,
                                 node=node, uid=uid, outcome=outcome)
        else:
            counter[flow] += 1

    # ------------------------------------------------------------------
    # end-of-run verification
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check all conservation identities; raise on the first failure.

        When the event queue is empty nothing may be in flight at all;
        when the run stopped at a time horizon, queued and in-transit
        packets are legitimate but the tracked queue contents must still
        match the gateways exactly.
        """
        now = self.sim.now
        monitor = self.monitor
        transit_by_link: Counter = Counter()
        alive_by_flow: Counter = Counter()
        queued_by_link: Dict[Optional[str], Set[int]] = defaultdict(set)
        limbo: List[int] = []
        for uid, (state, link, flow) in self._where.items():
            alive_by_flow[flow] += 1
            if state == _TRANSIT:
                transit_by_link[link] += 1
            elif state == _QUEUED:
                queued_by_link[link].add(uid)
            elif state == _AT_NODE:
                limbo.append(uid)

        for name, link in sorted(self._links.items()):
            gateway = link.gateway
            monitor.check_gateway(name, gateway, now)
            tracked = queued_by_link[name]
            physical = {packet.uid for packet in gateway.contents()}
            monitor.require(
                "conservation.queue_contents", tracked == physical,
                now, link=name,
                leaked=sorted(tracked - physical)[:5],
                smuggled=sorted(physical - tracked)[:5],
            )
            counts = self.link_counts[name]
            monitor.require(
                "conservation.link_balance",
                counts["accepted"]
                == counts["dequeued"] + counts["evicted"] + len(tracked)
                and counts["dequeued"]
                == counts["delivered"] + transit_by_link[name],
                now, link=name, in_queue=len(tracked),
                in_transit=transit_by_link[name], **counts,
            )

        for flow in sorted(self.created_by_flow):
            injected = self.created_by_flow[flow]
            terminal = (
                self.delivered_by_flow[flow]
                + self.sunk_by_flow[flow]
                + self.replicated_by_flow[flow]
                + self.dropped_by_flow[flow]
            )
            monitor.require(
                "conservation.flow_balance",
                injected == terminal + alive_by_flow[flow],
                now, flow=flow, injected=injected,
                delivered=self.delivered_by_flow[flow],
                sunk=self.sunk_by_flow[flow],
                replicated=self.replicated_by_flow[flow],
                dropped=self.dropped_by_flow[flow],
                in_flight=alive_by_flow[flow],
            )

        # A packet "at a node" between events is impossible: node
        # processing is synchronous, so anything still there leaked out of
        # the datapath without reaching a queue, a wire, or an agent.
        monitor.require(
            "conservation.no_limbo", not limbo,
            now, stuck_uids=sorted(limbo)[:5], stuck=len(limbo),
        )
        if self.sim.pending() == 0:
            monitor.require(
                "conservation.drained_empty", not self._where,
                now, in_flight=len(self._where),
                uids=sorted(self._where)[:5],
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """Number of packets currently alive (created, no terminal fate)."""
        return len(self._where)

    def flow_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-flow conservation ledger (for stats and JSONL export)."""
        alive_by_flow: Counter = Counter(
            flow for (_state, _link, flow) in self._where.values()
        )
        return {
            flow: {
                "injected": self.created_by_flow[flow],
                "delivered": self.delivered_by_flow[flow],
                "sunk": self.sunk_by_flow[flow],
                "replicated": self.replicated_by_flow[flow],
                "dropped": self.dropped_by_flow[flow],
                "in_flight": alive_by_flow[flow],
            }
            for flow in sorted(self.created_by_flow)
        }

    def link_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-link accounting ledger (for stats and JSONL export)."""
        in_queue: Counter = Counter(
            link for (state, link, _flow) in self._where.values()
            if state == _QUEUED
        )
        return {
            name: dict(counts, in_queue=in_queue[name])
            for name, counts in sorted(self.link_counts.items())
        }


def arm(sim: Simulator, net: Network) -> ConservationAuditor:
    """Audit a freshly built ``net``: recorder + monitor + auditor, every
    hook attached, engine events recorded.  Undo with ``disarm()``."""
    recorder = FlightRecorder()
    auditor = ConservationAuditor(sim, monitor=InvariantMonitor(recorder),
                                  recorder=recorder)
    auditor.attach(net)
    sim.event_hook = recorder.observe_event
    return auditor
