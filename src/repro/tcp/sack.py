"""Selective-acknowledgment bookkeeping (RFC 2018 style, packet granular).

Two halves:

* :class:`ReceiverSackTracker` lives at a receiver.  It records which
  segments have arrived, advances the cumulative ACK point, and generates
  up to three SACK blocks (most recently changed first, per RFC 2018).
* :class:`SenderScoreboard` lives at a sender.  It digests incoming
  cumulative ACK + SACK block information and answers "which outstanding
  segments should be considered lost?" using the paper's rule: a segment is
  lost once a segment at least ``dupthresh`` higher has been SACKed.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

SackBlock = Tuple[int, int]  # half-open [start, end)
#: SACK blocks one ACK carries (RFC 2018's three, beside a timestamp).
MAX_BLOCKS = 3


class ReceiverSackTracker:
    """Receiver-side arrival map: cumulative point + out-of-order segments.

    ``base`` starts the cumulative point above zero — a late-joining
    multicast receiver is synced to the sender's current send point and
    treats everything below it as already delivered.

    Slotted: every TCP receiver and every multicast group member owns
    one, consulted per delivered segment.
    """

    __slots__ = ("rcv_nxt", "_above", "_recent_blocks", "distinct_received")

    def __init__(self, base: int = 0) -> None:
        #: Next expected in-order sequence number; all seq < rcv_nxt received.
        self.rcv_nxt = base
        self._above: Set[int] = set()
        self._recent_blocks: List[SackBlock] = []
        #: Number of distinct (first-time) segments received.
        self.distinct_received = 0

    def receive(self, seq: int) -> bool:
        """Record segment ``seq``; returns True if it was new."""
        if seq < self.rcv_nxt or seq in self._above:
            return False
        self.distinct_received += 1
        if seq == self.rcv_nxt:
            self.rcv_nxt += 1
            while self.rcv_nxt in self._above:
                self._above.discard(self.rcv_nxt)
                self.rcv_nxt += 1
        else:
            self._above.add(seq)
        self._remember_block(seq)
        return True

    def _remember_block(self, seq: int) -> None:
        """Track the block containing ``seq`` as most-recently-updated."""
        if seq < self.rcv_nxt:
            self._recent_blocks = [
                b for b in self._recent_blocks if b[1] > self.rcv_nxt
            ]
            return
        start = seq
        while start - 1 in self._above:
            start -= 1
        end = seq + 1
        while end in self._above:
            end += 1
        block = (start, end)
        self._recent_blocks = [
            b for b in self._recent_blocks
            if not (b[0] >= block[0] and b[1] <= block[1]) and b[1] > self.rcv_nxt
        ]
        self._recent_blocks.insert(0, block)

    def blocks(self) -> Tuple[SackBlock, ...]:
        """Up to :data:`MAX_BLOCKS` SACK blocks, most recently updated first."""
        out: List[SackBlock] = []
        for block in self._recent_blocks:
            if block[1] <= self.rcv_nxt:
                continue
            clipped = (max(block[0], self.rcv_nxt), block[1])
            if clipped not in out:
                out.append(clipped)
            if len(out) == MAX_BLOCKS:
                break
        return tuple(out)

    def has(self, seq: int) -> bool:
        """True once segment ``seq`` has been received."""
        return seq < self.rcv_nxt or seq in self._above


class SenderScoreboard:
    """Sender-side view of what the receiver holds."""

    def __init__(self, dupthresh: int = 3) -> None:
        self.dupthresh = dupthresh
        #: Highest cumulative ACK seen (all seq < snd_una delivered).
        self.snd_una = 0
        self._sacked: Set[int] = set()
        #: Highest sequence number ever SACKed (or -1).
        self.max_sacked = -1

    def update(self, ack: int, sack: Optional[Iterable[SackBlock]]) -> int:
        """Digest one ACK; returns the number of newly cum-acked segments."""
        newly_acked = max(0, ack - self.snd_una)
        if ack > self.snd_una:
            self.snd_una = ack
            if self._sacked:
                self._sacked = {s for s in self._sacked if s >= ack}
        if sack:
            for start, end in sack:
                for seq in range(max(start, self.snd_una), end):
                    self._sacked.add(seq)
                if end - 1 > self.max_sacked:
                    self.max_sacked = end - 1
        if ack - 1 > self.max_sacked:
            self.max_sacked = ack - 1
        return newly_acked

    def is_sacked(self, seq: int) -> bool:
        """True if the receiver is known to hold ``seq``."""
        return seq < self.snd_una or seq in self._sacked

    def is_lost(self, seq: int) -> bool:
        """The paper's loss rule: something >= seq + dupthresh was SACKed."""
        if self.is_sacked(seq):
            return False
        return self.max_sacked >= seq + self.dupthresh

    def lost_segments(self, up_to: int) -> List[int]:
        """All segments in [snd_una, up_to) currently deemed lost."""
        limit = min(up_to, self.max_sacked - self.dupthresh + 1)
        if limit <= self.snd_una:
            return []
        return [
            seq
            for seq in range(self.snd_una, limit)
            if seq not in self._sacked
        ]

    @property
    def sacked_count(self) -> int:
        """Number of SACKed-but-not-cum-acked segments."""
        return len(self._sacked)
