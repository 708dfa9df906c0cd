"""Minimal traffic agents: a constant-bit-rate source and a counting sink.

These are not part of the paper's algorithms — they exist so the network
substrate can be exercised and tested in isolation (queue behaviour, link
timing, multicast replication) and so the rate-based baselines have a
packet pump to drive.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..sim.engine import Simulator
from ..units import DEFAULT_PACKET_SIZE
from .node import Node
from .packet import DATA, Packet


class CbrSource:
    """Sends fixed-size packets at a constant rate until stopped."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow: str,
        dst: str,
        rate_pps: float,
        packet_size: int = DEFAULT_PACKET_SIZE,
    ) -> None:
        if rate_pps <= 0:
            raise ConfigurationError(f"non-positive CBR rate: {rate_pps}")
        self.sim = sim
        self.node = node
        self.flow = flow
        self.dst = dst
        self.packet_size = packet_size
        self.interval = 1.0 / rate_pps
        self.next_seq = 0
        self._running = False
        # Emission-chain epoch: each start() begins a new chain and stale
        # events from earlier chains identify themselves by epoch.  Without
        # this, stop() followed by start() before the stale _emit fires
        # would leave two chains running at double rate.
        self._epoch = 0

    def set_rate(self, rate_pps: float) -> None:
        """Change the sending rate (takes effect from the next packet)."""
        if rate_pps <= 0:
            raise ConfigurationError(f"non-positive CBR rate: {rate_pps}")
        self.interval = 1.0 / rate_pps

    def start(self, offset: float = 0.0) -> None:
        """Begin sending; the first packet leaves after ``offset`` seconds.

        Safe to call after :meth:`stop` at any time — a restart starts a
        fresh emission chain and orphans any still-scheduled event of the
        previous one.
        """
        if self._running:
            return
        self._running = True
        self._epoch += 1
        self.sim.post(offset, self._emit, (self._epoch,), f"{self.flow}.cbr")

    def stop(self) -> None:
        """Stop sending; the already-scheduled next emission is discarded."""
        self._running = False

    def _emit(self, epoch: int) -> None:
        if not self._running or epoch != self._epoch:
            return
        packet = Packet(
            DATA,
            self.flow,
            self.node.id,
            self.dst,
            self.next_seq,
            self.packet_size,
            sent_time=self.sim.now,
        )
        self.next_seq += 1
        self.node.send(packet)
        self.sim.post(self.interval, self._emit, (epoch,), f"{self.flow}.cbr")


class PacketSink:
    """Counts the packets and bytes arriving for one flow."""

    def __init__(self, node: Node, flow: str) -> None:
        self.node = node
        self.flow = flow
        self.received = 0
        self.bytes = 0
        self.last_seq: Optional[int] = None
        node.bind(flow, self.on_packet)

    def on_packet(self, packet: Packet) -> None:
        """Handler invoked by the owning node for each delivered packet."""
        self.received += 1
        self.bytes += packet.size
        self.last_seq = packet.seq
