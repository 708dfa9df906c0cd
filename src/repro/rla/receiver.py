"""The RLA receiver.

The TCP SACK receiver itself (§3.3: "Our multicast receivers use selective
acknowledgments using the same format as SACK TCP receivers"): both are a
:class:`~repro.tcp.receiver.SackReceiver`.  What the multicast member adds:
every ACK is stamped with the receiver's identity so the sender can do
per-receiver accounting, every ACK waits a random ``ack_jitter`` so the
group's feedback does not implode, and a late joiner's stream starts at
its sync point.  Multicast data and unicast repairs arrive on the same
flow.
"""

from __future__ import annotations

from typing import Optional

from ..net.node import Node
from ..net.packet import Packet
from ..sim.engine import Simulator
from ..tcp.receiver import SackReceiver
from .config import RLAConfig


class RLAReceiver(SackReceiver):
    """One member of an RLA multicast session."""

    __slots__ = ("sender_id", "start_seq", "_ack_rng", "joined_at")

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow: str,
        sender_id: str,
        config: Optional[RLAConfig] = None,
        start_seq: int = 0,
    ) -> None:
        super().__init__(sim, node, flow, config or RLAConfig(), base=start_seq)
        self.sender_id = sender_id
        #: Late-join sync point: the sender's send sequence at join time.
        #: Data below it predates this receiver's membership — the tracker
        #: treats it as delivered, so the session never repairs history
        #: for a late joiner.
        self.start_seq = start_seq
        self._ack_rng = sim.rng.stream(f"{flow}.{node.id}.ackjit")
        self.joined_at = sim.now

    def _send_ack(self, data: Packet) -> None:
        args = (self.sender_id, data.seq, data.sent_time, data.ce, self.node.id)
        jitter = self.config.ack_jitter
        if jitter > 0:
            delay = self._ack_rng.uniform(0.0, jitter)
            self.sim.post(delay, self._emit_ack, args, f"{self.flow}.ackjit")
        else:
            self._emit_ack(*args)

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
