"""The RLA receiver.

Identical in spirit to the TCP SACK receiver (§3.3: "Our multicast
receivers use selective acknowledgments using the same format as SACK TCP
receivers"), with two additions: every ACK is stamped with the receiver's
identity so the sender can do per-receiver accounting, and the receiver
accepts both multicast data and unicast repairs on the same flow.
"""

from __future__ import annotations

from typing import Optional

from ..net.node import Node
from ..net.packet import ACK, DATA, Packet
from ..sim.engine import Simulator
from ..tcp.sack import ReceiverSackTracker
from .config import RLAConfig


class RLAReceiver:
    """One member of an RLA multicast session.

    Slotted: one instance per group member, hot on every data delivery.
    """

    __slots__ = (
        "sim",
        "node",
        "flow",
        "sender_id",
        "config",
        "start_seq",
        "tracker",
        "_ack_rng",
        "acks_sent",
        "duplicates",
        "joined_at",
    )

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow: str,
        sender_id: str,
        config: Optional[RLAConfig] = None,
        start_seq: int = 0,
    ) -> None:
        self.sim = sim
        self.node = node
        self.flow = flow
        self.sender_id = sender_id
        self.config = (config or RLAConfig()).validate()
        #: Late-join sync point: the sender's send sequence at join time.
        #: Data below it predates this receiver's membership — the tracker
        #: treats it as delivered, so the session never repairs history
        #: for a late joiner.
        self.start_seq = start_seq
        self.tracker = ReceiverSackTracker(base=start_seq)
        self._ack_rng = sim.rng.stream(f"{flow}.{node.id}.ackjit")
        self.acks_sent = 0
        self.duplicates = 0
        self.joined_at = sim.now

    @property
    def distinct_received(self) -> int:
        """Distinct data segments this receiver holds."""
        return self.tracker.distinct_received

    def on_packet(self, packet: Packet) -> None:
        """Node-bound handler for multicast data and unicast repairs."""
        if packet.kind != DATA:
            return
        if not self.tracker.receive(packet.seq):
            self.duplicates += 1
        self._send_ack(packet)

    def _send_ack(self, data: Packet) -> None:
        echo = data.sent_time
        jitter = self.config.ack_jitter
        if jitter > 0:
            delay = self._ack_rng.uniform(0.0, jitter)
            self.sim.post(delay, self._emit_ack, (data.seq, echo, data.ce),
                          f"{self.flow}.ackjit")
        else:
            self._emit_ack(data.seq, echo, data.ce)

    def _emit_ack(self, seq: int, echo_ts: float, ce: bool = False) -> None:
        # The cumulative point and SACK blocks are read at emission time,
        # so a jittered ACK always carries the freshest receiver state.
        ack = Packet(
            ACK,
            self.flow,
            self.node.id,
            self.sender_id,
            seq,
            self.config.ack_size,
            sent_time=self.sim.now,
            echo_ts=echo_ts,
            ack=self.tracker.rcv_nxt,
            sack=self.tracker.blocks(),
            receiver=self.node.id,
        )
        ack.ece = ce  # echo an ECN mark straight back (one-shot)
        self.acks_sent += 1
        self.node.send(ack)

    def stats(self) -> dict:
        """Snapshot of receiver counters."""
        return {
            "distinct_received": self.distinct_received,
            "duplicates": self.duplicates,
            "acks_sent": self.acks_sent,
            "rcv_nxt": self.tracker.rcv_nxt,
            "start_seq": self.start_seq,
            "joined_at": self.joined_at,
            "time": self.sim.now,
        }
