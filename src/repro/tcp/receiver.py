"""The TCP SACK receiver.

Receivers in the paper's model are "infinitely fast": every data packet is
consumed immediately, and every data packet is acknowledged immediately
(one ACK per packet, NS2 SACK style).

Each ACK carries the cumulative point, up to three SACK blocks, the ECN
echo, and the data packet's send timestamp so the sender can measure RTT
without per-packet state.  :class:`SackReceiver` is that sink and
acknowledger; the RLA receivers are one too (§3.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from ..net.node import Node
from ..net.packet import ACK, DATA, Packet
from ..sim.engine import Simulator
from .config import TcpConfig
from .sack import ReceiverSackTracker

if TYPE_CHECKING:
    from ..rla.config import RLAConfig


class SackReceiver:
    """Sink + SACK acknowledger: one ACK per data packet received.

    Slotted: hot on every data delivery.  Subclasses say when to ACK
    (``_send_ack``); :meth:`_emit_ack` builds it.
    """

    __slots__ = ("sim", "node", "flow", "config", "tracker", "acks_sent",
                 "duplicates")

    def __init__(self, sim: Simulator, node: Node, flow: str,
                 config: Union[TcpConfig, RLAConfig], base: int = 0) -> None:
        self.sim = sim
        self.node = node
        self.flow = flow
        self.config = config.validate()
        self.tracker = ReceiverSackTracker(base=base)
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

    def _emit_ack(self, dst: str, seq: int, echo_ts: float, ce: bool,
                  receiver: Optional[str] = None) -> None:
        # The cumulative point and SACK blocks are read at emission time,
        # so a delayed ACK always carries the freshest receiver state.
        ack = Packet(ACK, self.flow, self.node.id, dst, seq,
                     self.config.ack_size, sent_time=self.sim.now,
                     echo_ts=echo_ts, ack=self.tracker.rcv_nxt,
                     sack=self.tracker.blocks(), receiver=receiver)
        ack.ece = ce  # echo an ECN mark straight back (one-shot)
        self.acks_sent += 1
        self.node.send(ack)


class TcpReceiver(SackReceiver):
    """Sink + acknowledger for one TCP connection."""

    __slots__ = ()

    def __init__(self, sim: Simulator, node: Node, flow: str,
                 config: Optional[TcpConfig] = None) -> None:
        super().__init__(sim, node, flow, config or TcpConfig())

    def _send_ack(self, data: Packet) -> None:
        self._emit_ack(data.src, data.seq, data.sent_time, data.ce)

    def stats(self) -> dict:
        """Snapshot of receiver counters."""
        return {
            "distinct_received": self.distinct_received,
            "duplicates": self.duplicates,
            "acks_sent": self.acks_sent,
            "time": self.sim.now,
        }
