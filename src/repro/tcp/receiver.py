"""The TCP SACK receiver.

Receivers in the paper's model are "infinitely fast": every data packet is
consumed immediately, and every data packet is acknowledged immediately
(one ACK per packet, NS2 SACK style).

Each ACK carries the cumulative point, up to three SACK blocks, the ECN
echo, and the data packet's send timestamp so the sender can measure RTT
without per-packet state.
"""

from __future__ import annotations

from typing import Optional

from ..net.node import Node
from ..net.packet import ACK, DATA, Packet
from ..sim.engine import Simulator
from .config import TcpConfig
from .sack import ReceiverSackTracker


class TcpReceiver:
    """Sink + acknowledger for one TCP connection."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow: str,
        config: Optional[TcpConfig] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.flow = flow
        self.config = (config or TcpConfig()).validate()
        self.tracker = ReceiverSackTracker()
        self.acks_sent = 0
        self.duplicates = 0

    @property
    def distinct_received(self) -> int:
        """Distinct data segments delivered (the goodput numerator)."""
        return self.tracker.distinct_received

    def on_packet(self, packet: Packet) -> None:
        """Node-bound handler; receivers only care about data."""
        if packet.kind != DATA:
            return
        if not self.tracker.receive(packet.seq):
            self.duplicates += 1
        self._send_ack(packet)

    def _send_ack(self, data: Packet) -> None:
        ack = Packet(
            ACK,
            self.flow,
            self.node.id,
            data.src,
            data.seq,
            self.config.ack_size,
            sent_time=self.sim.now,
            echo_ts=data.sent_time,
            ack=self.tracker.rcv_nxt,
            sack=self.tracker.blocks(),
        )
        ack.ece = data.ce  # echo an ECN mark straight back (one-shot)
        self.acks_sent += 1
        self.node.send(ack)

    def stats(self) -> dict:
        """Snapshot of receiver counters."""
        return {
            "distinct_received": self.distinct_received,
            "duplicates": self.duplicates,
            "acks_sent": self.acks_sent,
            "time": self.sim.now,
        }
