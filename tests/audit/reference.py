"""The pre-PR-17 audit layer, kept verbatim as the diet's oracle.

Until PR 17 every audited hop *described* itself whether or not anything
was wrong: ``InvariantMonitor.require(check, cond, time, **context)``
built its context dict on every call, ``ConservationAuditor._record`` ->
``FlightRecorder.record`` built two more per ring entry, and each link
mirrored its queued uids in a ``set`` only ``verify()`` read.
``repro.audit`` now evaluates the same conditions inline and builds
context and record text on failure/read; this module is the old
``recorder.py``, ``invariants.py`` and ``conservation.py``, moved here
unchanged (one file, imports made absolute) so ``test_diet_oracle.py`` can
require the new layer to count the same checks, keep the same records and
raise the same violations.  Do not optimise or tidy it: its behaviour *is*
the contract.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.audit.violation import InvariantViolation
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import Packet, install_creation_hook, uninstall_creation_hook
from repro.sim.engine import Simulator
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.net.queue import Gateway
    from repro.rla.sender import RLASender
    from repro.tcp.sender import TcpSender

TraceRecord = Tuple[float, str, Dict[str, Any]]


# ----------------------------------------------------------------------
# recorder.py
# ----------------------------------------------------------------------
class FlightRecorder:
    """Fixed-capacity ring of ``(time, category, fields)`` records."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"non-positive recorder capacity: {capacity}")
        self.capacity = capacity
        self._ring: Deque[TraceRecord] = deque(maxlen=capacity)
        #: Lifetime count of records seen (the ring only keeps the tail).
        self.recorded = 0

    # ------------------------------------------------------------------
    def record(self, time: float, category: str, **fields: Any) -> None:
        """Append one record, evicting the oldest once at capacity."""
        self._ring.append((time, category, fields))
        self.recorded += 1

    def sink(self, record: TraceRecord) -> None:
        """:class:`~repro.sim.trace.Tracer`-compatible sink callable."""
        self._ring.append(record)
        self.recorded += 1

    def observe_event(self, event: Event) -> None:
        """Engine ``event_hook`` adapter: record each executed event."""
        self.record(event.time, "event", name=event.name or "?")

    # ------------------------------------------------------------------
    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def dump(self, last: Optional[int] = None) -> str:
        """Human-readable dump of the most recent ``last`` records.

        Format: one record per line, ``<time>  <category>  k=v k=v ...``,
        preceded by a header giving retained/lifetime counts.
        """
        records = self.records
        if last is not None:
            records = records[-last:]
        header = (f"{len(records)} record(s) shown, "
                  f"{self.recorded} recorded in total")
        lines = [header]
        for time, category, fields in records:
            rendered = " ".join(f"{key}={value}" for key, value in fields.items())
            lines.append(f"{time:14.6f}  {category:<10s} {rendered}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# invariants.py
# ----------------------------------------------------------------------
class InvariantMonitor:
    """Runs named boolean checks; failures become structured violations."""

    def __init__(
        self,
        recorder: Optional[FlightRecorder] = None,
        strict: bool = True,
    ) -> None:
        self.recorder = recorder
        self.strict = strict
        self.checks_run = 0
        self.violations: List[InvariantViolation] = []

    # ------------------------------------------------------------------
    def require(
        self, check: str, condition: bool, time: float = 0.0, **context: Any
    ) -> bool:
        """Record one check; raise (or collect) on failure.

        Returns the condition so callers can guard follow-up work in
        non-strict mode.
        """
        self.checks_run += 1
        if condition:
            return True
        violation = InvariantViolation(
            check,
            time=time,
            context=context,
            dump=self.recorder.dump() if self.recorder is not None else "",
        )
        self.violations.append(violation)
        if self.strict:
            raise violation
        return False

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    # ------------------------------------------------------------------
    # domain checks (read component internals; the audit layer is the one
    # privileged observer allowed to)
    # ------------------------------------------------------------------
    def check_tcp(self, sender: "TcpSender") -> None:
        """TCP sender sanity: window bounds, pipe, sequence ordering."""
        now = sender.sim.now
        flow = sender.flow
        self.require(
            "tcp.cwnd_bounds",
            1.0 <= sender.cwnd <= sender.config.max_cwnd,
            now, flow=flow, cwnd=sender.cwnd, max_cwnd=sender.config.max_cwnd,
        )
        self.require(
            "tcp.pipe_nonnegative", sender.pipe >= 0,
            now, flow=flow, pipe=sender.pipe, snd_una=sender.snd_una,
            snd_nxt=sender.snd_nxt,
        )
        self.require(
            "tcp.sequence_order", sender.snd_una <= sender.snd_nxt,
            now, flow=flow, snd_una=sender.snd_una, snd_nxt=sender.snd_nxt,
        )

    def check_rla(self, sender: "RLASender") -> None:
        """RLA sender sanity: window bounds, reach counts, ACK ordering."""
        now = sender.sim.now
        flow = sender.flow
        self.require(
            "rla.cwnd_bounds",
            1.0 <= sender.cwnd <= sender.config.max_cwnd,
            now, flow=flow, cwnd=sender.cwnd, max_cwnd=sender.config.max_cwnd,
        )
        # A reach count at/above n_receivers means a completion was missed
        # (counts are popped the moment the last receiver ACKs); at/below
        # zero means a phantom ACK was counted.
        bad = {
            seq: count
            for seq, count in sender._reach.items()
            if not 0 < count < sender.n_receivers
        }
        self.require(
            "rla.reach_bounds", not bad,
            now, flow=flow, n_receivers=sender.n_receivers,
            bad_counts=dict(sorted(bad.items())[:5]),
        )
        self.require(
            "rla.sequence_order", sender.min_last_ack <= sender.snd_nxt,
            now, flow=flow, min_last_ack=sender.min_last_ack,
            snd_nxt=sender.snd_nxt,
        )

    def check_gateway(self, name: str, gateway: "Gateway", time: float) -> None:
        """Gateway bookkeeping: counters must agree with physical storage."""
        physical = len(gateway.contents())
        # ``evicted`` covers dequeue-time discards (CoDel): those packets
        # were enqueued but never dequeued, so plain enqueued - dequeued
        # over-counts occupancy by exactly that number.
        self.require(
            "gateway.depth_consistent",
            gateway.depth == physical
            and gateway.enqueued - gateway.dequeued - gateway.evicted
            == physical,
            time, link=name, depth=gateway.depth, physical=physical,
            enqueued=gateway.enqueued, dequeued=gateway.dequeued,
            evicted=gateway.evicted,
        )
        self.require(
            "gateway.bytes_nonnegative", gateway.bytes_queued >= 0,
            time, link=name, bytes_queued=gateway.bytes_queued,
        )


# ----------------------------------------------------------------------
# conservation.py
# ----------------------------------------------------------------------
#: Per-uid lifecycle states (terminal fates are counted, not stored).
_AT_NODE = "node"
_QUEUED = "queued"
_TRANSIT = "transit"

#: (state, link name or None, flow)
_PacketState = Tuple[str, Optional[str], str]


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
        self._net: Optional[Network] = None
        self._links: Dict[str, Link] = {}
        self._where: Dict[int, _PacketState] = {}
        self._queued_uids: Dict[str, Set[int]] = {}
        # per-flow lifetime counters
        self.created_by_flow: Counter = Counter()
        self.delivered_by_flow: Counter = Counter()
        self.sunk_by_flow: Counter = Counter()
        self.replicated_by_flow: Counter = Counter()
        self.dropped_by_flow: Counter = Counter()
        # per-link counters: accepted / dropped / dequeued / delivered
        self.link_counts: Dict[str, Dict[str, int]] = {}

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
        self._net = net
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
        self._queued_uids[name] = set()
        self.link_counts[name] = {
            "accepted": 0, "dropped": 0, "dequeued": 0, "delivered": 0,
            "evicted": 0,
        }
        # functools.partial, not lambdas: these hooks live inside the
        # network object graph, which checkpoint snapshots pickle whole.
        gateway = link.gateway
        gateway.on_enqueue(partial(self._on_enqueue, name))
        gateway.on_drop(partial(self._on_drop, name))
        gateway.on_dequeue(partial(self._on_dequeue, name))
        link.on_deliver(partial(self._on_deliver, name))

    def _watch_node(self, node: Node) -> None:
        node.on_consume(partial(self._on_consume, node.id))

    # ------------------------------------------------------------------
    # lifecycle transitions
    # ------------------------------------------------------------------
    def _record(self, category: str, **fields: Any) -> None:
        if self.recorder is not None:
            self.recorder.record(self.sim.now, category, **fields)

    def _on_created(self, packet: Packet) -> None:
        uid = packet.uid
        self.monitor.require(
            "conservation.unique_uid", uid not in self._where,
            self.sim.now, uid=uid, flow=packet.flow,
        )
        self._where[uid] = (_AT_NODE, None, packet.flow)
        self.created_by_flow[packet.flow] += 1

    def _on_enqueue(self, link: str, now: float, packet: Packet, depth: int) -> None:
        state = self._where.get(packet.uid)
        self._record("enqueue", link=link, flow=packet.flow, seq=packet.seq,
                     uid=packet.uid, depth=depth)
        self.monitor.require(
            "conservation.enqueue_from_node",
            state is not None and state[0] == _AT_NODE,
            now, link=link, uid=packet.uid, flow=packet.flow, state=state,
        )
        self._where[packet.uid] = (_QUEUED, link, packet.flow)
        self._queued_uids[link].add(packet.uid)
        self.link_counts[link]["accepted"] += 1

    def _on_drop(self, link: str, now: float, packet: Packet, reason: str) -> None:
        state = self._where.pop(packet.uid, None)
        self._record("drop", link=link, flow=packet.flow, seq=packet.seq,
                     uid=packet.uid, reason=reason)
        # Most disciplines drop arrivals (_AT_NODE pre-state), but an
        # evicting discipline — CoDel's drop-at-dequeue — legally drops a
        # packet it had already queued, so both pre-states are accepted;
        # the queued case is additionally tallied as an eviction so the
        # link balance can account for packets that entered the queue but
        # never came out the front.
        self.monitor.require(
            "conservation.drop_alive",
            state is not None and state[0] in (_AT_NODE, _QUEUED),
            now, link=link, uid=packet.uid, flow=packet.flow, state=state,
        )
        if state is not None and state[0] == _QUEUED and state[1] is not None:
            self._queued_uids[state[1]].discard(packet.uid)
            self.link_counts[state[1]]["evicted"] += 1
        self.dropped_by_flow[packet.flow] += 1
        self.link_counts[link]["dropped"] += 1

    def _on_dequeue(self, link: str, now: float, packet: Packet) -> None:
        state = self._where.get(packet.uid)
        self.monitor.require(
            "conservation.dequeue_from_queue",
            state == (_QUEUED, link, packet.flow),
            now, link=link, uid=packet.uid, flow=packet.flow, state=state,
        )
        self._where[packet.uid] = (_TRANSIT, link, packet.flow)
        self._queued_uids[link].discard(packet.uid)
        self.link_counts[link]["dequeued"] += 1

    def _on_deliver(self, link: str, now: float, packet: Packet) -> None:
        state = self._where.get(packet.uid)
        self._record("deliver", link=link, flow=packet.flow, seq=packet.seq,
                     uid=packet.uid)
        # A second delivery of the same uid fails here: the packet is no
        # longer in transit on this link (it is at a node, or terminal).
        self.monitor.require(
            "conservation.single_delivery",
            state == (_TRANSIT, link, packet.flow),
            now, link=link, uid=packet.uid, flow=packet.flow, state=state,
        )
        self._where[packet.uid] = (_AT_NODE, None, packet.flow)
        self.link_counts[link]["delivered"] += 1

    def _on_consume(self, node: str, packet: Packet, outcome: str) -> None:
        now = self.sim.now
        state = self._where.pop(packet.uid, None)
        self._record("consume", node=node, flow=packet.flow, seq=packet.seq,
                     uid=packet.uid, outcome=outcome)
        self.monitor.require(
            "conservation.consume_once",
            state is not None and state[0] == _AT_NODE,
            now, node=node, uid=packet.uid, flow=packet.flow,
            outcome=outcome, state=state,
        )
        counter = {
            "delivered": self.delivered_by_flow,
            "sunk": self.sunk_by_flow,
            "replicated": self.replicated_by_flow,
        }.get(outcome)
        self.monitor.require(
            "conservation.known_outcome", counter is not None,
            now, node=node, uid=packet.uid, outcome=outcome,
        )
        if counter is not None:
            counter[packet.flow] += 1

    # ------------------------------------------------------------------
    # end-of-run verification
    # ------------------------------------------------------------------
    def verify(self, drained: Optional[bool] = None) -> None:
        """Check all conservation identities; raise on the first failure.

        ``drained`` overrides the engine-queue check: when the event queue
        is empty nothing may be in flight at all; when the run stopped at
        a time horizon, queued and in-transit packets are legitimate but
        the tracked queue contents must still match the gateways exactly.
        """
        now = self.sim.now
        monitor = self.monitor
        transit_by_link: Counter = Counter()
        alive_by_flow: Counter = Counter()
        limbo: List[int] = []
        for uid, (state, link, flow) in self._where.items():
            alive_by_flow[flow] += 1
            if state == _TRANSIT:
                transit_by_link[link] += 1
            elif state == _AT_NODE:
                limbo.append(uid)

        for name, link in sorted(self._links.items()):
            gateway = link.gateway
            monitor.check_gateway(name, gateway, now)
            tracked = self._queued_uids[name]
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
        if drained is None:
            drained = self.sim.pending() == 0
        if drained:
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
        return {
            name: dict(counts, in_queue=len(self._queued_uids[name]))
            for name, counts in sorted(self.link_counts.items())
        }
