"""Gateway queue abstraction.

A :class:`Gateway` sits between a router and an outgoing link's
transmitter: arriving packets are offered to :meth:`enqueue` (which may drop
them — that *is* congestion in this simulator) and the link transmitter
pulls them back out with :meth:`dequeue` whenever it goes idle.  A packet
that finds the wire idle is offered to :meth:`serve` instead, which
returns it (or ``None`` for a drop) as enqueue-then-dequeue would.

Concrete disciplines: :class:`repro.net.droptail.DropTailQueue`,
:class:`repro.net.red.REDQueue` (plus byte-mode / adaptive variants),
:class:`repro.net.codel.CoDelQueue` and :class:`repro.net.pie.PIEQueue`.

Drop-cause taxonomy (the ``reason`` string passed to drop hooks):

========== ==========================================================
cause      meaning
========== ==========================================================
overflow   physical buffer full (every discipline)
forced     RED average at/above ``max_th`` — deterministic drop
early      RED probabilistic early drop (or would-be ECN mark)
random     Bernoulli loss injected by :class:`~repro.net.faults.RandomDropQueue`
sojourn    CoDel eviction at *dequeue* time (queued packet discarded)
========== ==========================================================

``sojourn`` drops count in ``dropped`` like every other loss *and* in
:attr:`Gateway.evicted`: the packet was accepted and enqueued, then
discarded at the head of line, so occupancy conservation reads
``enqueued - dequeued - evicted == depth``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from .packet import Packet

DropHook = Callable[[float, Packet, str], None]
EnqueueHook = Callable[[float, Packet, int], None]
DequeueHook = Callable[[float, Packet], None]

#: Every queue discipline selectable by name (scenario specs, CLI flags).
#: Names are the public contract — ``ScenarioSpec.gateway`` validates
#: against this tuple and :class:`repro.net.network.GatewayFactory`
#: refuses any other.  It lives here, beside the gateway interface, so
#: a spec or a parser reads it without loading links or the simulator.
GATEWAY_DISCIPLINES: Tuple[str, ...] = (
    "droptail", "red", "red-byte", "red-adaptive", "codel", "pie",
)


class Gateway:
    """Base FIFO gateway; subclasses decide *whether to accept* a packet."""

    #: Human-readable discipline name, overridden by subclasses.
    discipline = "fifo"

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"non-positive queue capacity: {capacity}")
        self.capacity = capacity
        self._queue: Deque[Packet] = deque()
        self.bytes_queued = 0
        # lifetime statistics
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        #: Packets accepted into the queue but discarded at *dequeue* time
        #: (CoDel's drop-at-head law).  Zero for arrival-drop disciplines;
        #: auditors check ``enqueued - dequeued - evicted == depth``.
        self.evicted = 0
        #: Largest queue depth (in packets) ever reached.  Tracked natively
        #: so experiments need no per-enqueue observer hook just to report
        #: peak occupancy — keeping the common no-hook enqueue on its fast
        #: path (hook lists empty, loop skipped entirely).
        self.peak_depth = 0
        self._drop_hooks: List[DropHook] = []
        self._enqueue_hooks: List[EnqueueHook] = []
        self._dequeue_hooks: List[DequeueHook] = []
        #: Mean packet service time on the attached link; set by the link at
        #: attach time.  RED needs it to age the average queue across idle
        #: periods; other disciplines may ignore it.
        self.mean_pkt_time: float = 0.0

    # -- hooks ---------------------------------------------------------
    def on_drop(self, hook: DropHook) -> None:
        """Register ``hook(now, packet, reason)`` to observe drops."""
        self._drop_hooks.append(hook)

    def on_enqueue(self, hook: EnqueueHook) -> None:
        """Register ``hook(now, packet, depth_after)`` to observe arrivals."""
        self._enqueue_hooks.append(hook)

    def on_dequeue(self, hook: DequeueHook) -> None:
        """Register ``hook(now, packet)`` to observe head-of-line removals."""
        self._dequeue_hooks.append(hook)

    def _notify_drop(self, now: float, packet: Packet, reason: str) -> None:
        self.dropped += 1
        hooks = self._drop_hooks
        if hooks:
            for hook in hooks:
                hook(now, packet, reason)

    def _notify_dequeue(self, now: float, packet: Packet) -> None:
        for hook in self._dequeue_hooks:
            hook(now, packet)

    def _accept(self, now: float, packet: Packet) -> None:
        queue = self._queue
        queue.append(packet)
        self.bytes_queued += packet.size
        self.enqueued += 1
        depth = len(queue)
        if depth > self.peak_depth:
            self.peak_depth = depth
        hooks = self._enqueue_hooks
        if hooks:
            for hook in hooks:
                hook(now, packet, depth)

    # -- discipline interface -------------------------------------------
    def enqueue(self, now: float, packet: Packet) -> bool:
        """Offer a packet; return True if accepted, False if dropped."""
        raise NotImplementedError

    def serve(self, now: float, packet: Packet) -> Optional[Packet]:
        """Offer a packet to an idle wire: what to transmit now, or ``None``.

        A :class:`~repro.net.link.Link` calls this instead of
        :meth:`enqueue` when its wire is free and nothing waits for it.
        This base form is exactly :meth:`enqueue` then :meth:`dequeue`, and
        every discipline without a cheaper verdict keeps it.  Drop-tail and
        RED override it to admit without touching the deque when it is
        empty and no enqueue/dequeue hooks watch it (a hook may read
        :attr:`depth`, which the round trip makes 1).
        """
        if self.enqueue(now, packet):
            return self.dequeue(now)
        return None

    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or ``None`` if empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.bytes_queued -= packet.size
        self.dequeued += 1
        if self._dequeue_hooks:
            self._notify_dequeue(now, packet)
        return packet

    # -- introspection ---------------------------------------------------
    def contents(self) -> Tuple[Packet, ...]:
        """Snapshot of the queued packets, head first (for auditors)."""
        return tuple(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth(self) -> int:
        """Current queue length in packets."""
        return len(self._queue)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(depth={len(self._queue)}/{self.capacity}, "
            f"drops={self.dropped})"
        )
