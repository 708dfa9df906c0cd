"""Unidirectional links: a gateway queue + serializing transmitter + wire.

The model matches NS2's SimpleLink: a router hands a packet to the link; if
the transmitter is idle it starts serializing immediately, otherwise the
packet is offered to the gateway queue (where drop-tail/RED policy
applies).  After ``size/bandwidth`` seconds of serialization the packet
spends ``delay`` seconds propagating, then arrives at the downstream node.
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
        self._busy = False
        self._tx_start = 0.0
        self._tx_size = 0
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
        """Entry point used by the upstream node's forwarding logic."""
        now = self.sim.now
        if self.gateway.enqueue(now, packet) and not self._busy:
            head = self.gateway.dequeue(now)
            if head is not None:
                self._transmit(head)

    def _transmit(self, packet: Packet) -> None:
        """Start serialising ``packet``, which just left the gateway."""
        sim = self.sim
        self._busy = True
        self._tx_start = sim.now
        size = packet.size
        self._tx_size = size
        # transmission_time(size, bandwidth) inlined: same arithmetic, no call
        # (bandwidth was validated positive at construction)
        sim.post(size * BITS_PER_BYTE / self.bandwidth_bps,
                 self._transmission_done, (packet,), self._tx_name)

    def _transmission_done(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.size
        sim = self.sim
        sim.post(self.delay_s,
                 self._arrive if self._deliver_hooks else self.dst.receive,
                 (packet,), self._rx_name)
        # Always ask, even when the queue looks empty: a discipline may keep
        # state on an empty dequeue (CoDel leaves its dropping state there).
        head = self.gateway.dequeue(sim.now)
        if head is None:
            self._busy = False
        else:
            self._transmit(head)

    def _arrive(self, packet: Packet) -> None:
        for hook in self._deliver_hooks:
            hook(self.sim.now, packet)
        self.dst.receive(packet)

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._busy

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds spent transmitting bits.

        ``bytes_sent`` is credited at serialization *end*, so the packet
        currently in service would be invisible to short measurement
        windows; its already-serialized fraction is added at read time.
        """
        if elapsed <= 0:
            return 0.0
        bits = self.bytes_sent * 8.0
        if self._busy:
            progress = max(0.0, self.sim.now - self._tx_start)
            bits += min(self._tx_size * 8.0, self.bandwidth_bps * progress)
        return min(1.0, bits / (self.bandwidth_bps * elapsed))

    def __repr__(self) -> str:
        return (
            f"Link({self.name}, {self.bandwidth_bps/1e6:.3f} Mbps, "
            f"{self.delay_s*1e3:.1f} ms, q={self.gateway.discipline})"
        )
