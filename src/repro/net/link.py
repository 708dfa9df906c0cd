"""Unidirectional links: a gateway queue + serializing transmitter + wire.

The model matches NS2's SimpleLink: a router hands a packet to the link; if
the transmitter is idle it starts serializing immediately, otherwise the
packet is offered to the gateway queue (where drop-tail/RED policy
applies).  After ``size/bandwidth`` seconds of serialization the packet
spends ``delay`` seconds propagating, then arrives at the downstream node.

Where the event structure departs from SimpleLink's: ns-2 schedules a
"transmission done" event per packet and a separate delivery event, two
events per hop.  Here one transmission is one event.  When serialization
starts, ``_transmit`` knows everything the end of it would: it records
``_free_at = start + tx``, credits the packet, and posts the downstream
arrival at ``(start + tx) + delay`` -- the very float the two-event link
computes.  The transmitter is woken at ``_free_at`` only when a packet is
waiting for it (``_wake``, armed by the first packet accepted while the
wire is busy, re-armed while the gateway is non-empty); a serialization
that ends on an empty gateway costs nothing, and the gateway is not asked
for a packet it does not have.  A packet that finds the wire idle is not
queued and dequeued again either: the gateway's ``serve`` verdict is the
packet to transmit (drop-tail and RED decide it without touching their
deque unless hooks watch it).  Per-packet instants are unchanged; what
changes is the engine sequence number that orders *exactly simultaneous*
events, so an arrival that ties with the wire freeing resolves by the
rule in docs/SIMULATOR.md ("Links and queues").  ``tests/sim/reference.py``
keeps the two-event link as the oracle for tie-free inputs.
"""

from __future__ import annotations

import math
from typing import Callable, List, TYPE_CHECKING

from ..errors import ConfigurationError
from ..units import BITS_PER_BYTE, DEFAULT_PACKET_SIZE, transmission_time
from ..sim.engine import Simulator
from .packet import Packet
from .queue import Gateway

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node

DeliverHook = Callable[[float, Packet], None]


class Link:
    """One direction of a point-to-point link."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        src: "Node",
        dst: "Node",
        bandwidth_bps: float,
        delay_s: float,
        gateway: Gateway,
        mean_packet_size: int = DEFAULT_PACKET_SIZE,
    ) -> None:
        if not bandwidth_bps > 0:  # written so that NaN fails too
            raise ConfigurationError(f"link {name}: non-positive bandwidth")
        if not 0 <= delay_s < math.inf:
            raise ConfigurationError(f"link {name}: negative or non-finite delay")
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.gateway = gateway
        #: when the packet in service finishes serialising (the wire is
        #: free from this instant on)
        self._free_at = 0.0
        #: a ``_wake`` is queued for ``_free_at``: packets are waiting
        self._waking = False
        # lifetime statistics
        self.packets_sent = 0
        self.bytes_sent = 0
        self._deliver_hooks: List[DeliverHook] = []
        # Event labels, precomputed: building two f-strings per forwarded
        # packet showed up in figure-7 profiles.
        self._tx_name = f"{name}.tx"
        self._rx_name = f"{name}.rx"
        if mean_packet_size <= 0:
            raise ConfigurationError(
                f"link {name}: non-positive mean_packet_size"
            )
        #: Mean packet size this link is provisioned for; RED ages its
        #: average — and byte-mode RED scales its thresholds — by the
        #: matching service time, so mixed-size scenarios must pass their
        #: configured mean instead of inheriting the 1000-byte default.
        self.mean_packet_size = mean_packet_size
        gateway.mean_pkt_time = transmission_time(mean_packet_size, bandwidth_bps)

    # ------------------------------------------------------------------
    def on_deliver(self, hook: DeliverHook) -> None:
        """Register ``hook(now, packet)`` to observe downstream arrivals.

        Hooks fire after propagation, just before the destination node's
        ``receive``.  Register before traffic starts: packets already
        propagating when the first hook is added are delivered unobserved.
        """
        self._deliver_hooks.append(hook)

    def send(self, packet: Packet) -> None:
        """Entry point used by the upstream node's forwarding logic.

        A busy wire (or one with packets already waiting) queues the packet
        at the gateway.  An idle wire has an empty gateway, so it transmits
        whatever the gateway's :meth:`~repro.net.queue.Gateway.serve`
        verdict hands back: the packet itself, or nothing for a drop.
        """
        now = self.sim.now
        if self._waking or now < self._free_at:
            if self.gateway.enqueue(now, packet) and not self._waking:
                # the first packet to wait: wake when the wire frees
                self._waking = True
                self.sim.post_at(self._free_at, self._wake, (), self._tx_name)
        else:
            head = self.gateway.serve(now, packet)
            if head is not None:
                self._transmit(head)

    def _transmit(self, packet: Packet) -> None:
        """Serialise ``packet``, which just left the gateway, and post its
        arrival downstream: one event per hop."""
        sim = self.sim
        size = packet.size
        # transmission_time(size, bandwidth) inlined: same arithmetic, no call
        # (bandwidth was validated positive at construction)
        free_at = sim.now + size * BITS_PER_BYTE / self.bandwidth_bps
        self._free_at = free_at
        self.packets_sent += 1
        self.bytes_sent += size
        sim.post_at(free_at + self.delay_s,
                    self._arrive if self._deliver_hooks else self.dst.receive,
                    (packet,), self._rx_name)

    def _wake(self) -> None:
        """The wire just freed with packets waiting: serve the head."""
        gateway = self.gateway
        head = gateway.dequeue(self.sim.now)
        if head is not None:
            self._transmit(head)
            if len(gateway):
                self.sim.post_at(self._free_at, self._wake, (), self._tx_name)
                return
        self._waking = False

    def _arrive(self, packet: Packet) -> None:
        for hook in self._deliver_hooks:
            hook(self.sim.now, packet)
        self.dst.receive(packet)

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self.sim.now < self._free_at

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds spent transmitting bits.

        ``bytes_sent`` is credited when serialization *starts*, so the
        not-yet-serialized part of the packet in service is taken back
        at read time.
        """
        if elapsed <= 0:
            return 0.0
        bits = self.bytes_sent * 8.0
        remaining = self._free_at - self.sim.now
        if remaining > 0:
            bits -= self.bandwidth_bps * remaining
        return min(1.0, bits / (self.bandwidth_bps * elapsed))

    def __repr__(self) -> str:
        return (
            f"Link({self.name}, {self.bandwidth_bps/1e6:.3f} Mbps, "
            f"{self.delay_s*1e3:.1f} ms, q={self.gateway.discipline})"
        )
