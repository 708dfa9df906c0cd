"""The drop-tail (FIFO, tail-drop) gateway.

This is the router type the paper calls "the toughest barrier to designing
a fair multicast congestion control algorithm" (§1): a finite FIFO that
drops arrivals once full, makes loss patterns phase-sensitive, and enforces
no per-flow fairness at all.
"""

from __future__ import annotations

from typing import Optional

from .packet import Packet
from .queue import Gateway


class DropTailQueue(Gateway):
    """Finite FIFO buffer; arrivals beyond ``capacity`` packets are dropped."""

    discipline = "droptail"

    def enqueue(self, now: float, packet: Packet) -> bool:
        if len(self._queue) >= self.capacity:
            self._notify_drop(now, packet, "overflow")
            return False
        self._accept(now, packet)
        return True

    def serve(self, now: float, packet: Packet) -> Optional[Packet]:
        if self._queue:  # a Link serves only an empty gateway
            return super().serve(now, packet)
        # an empty FIFO admits anything (capacity >= 1)
        if self._enqueue_hooks or self._dequeue_hooks:
            self._accept(now, packet)
            return self.dequeue(now)
        self.enqueued += 1
        self.dequeued += 1
        if not self.peak_depth:
            self.peak_depth = 1
        return packet
