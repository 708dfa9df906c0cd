"""Measurement probes for gateways and links.

:class:`QueueMonitor` observes one gateway and keeps aggregates only:
per-flow drop and enqueue counts, the largest depth, and a time-weighted
average queue depth (updated lazily at each enqueue/dequeue/drop
observation and folded forward at each read, so the statistics are correct
with or without an explicit :meth:`finish`).  The experiments use these to
verify buffer-period behaviour (§3.1) and to report loss rates per branch.
The per-packet facts (which drop, for what reason, at what depth) are the
audit layer's flight-recorder records, not a second log here.
"""

from __future__ import annotations

from collections import Counter

from ..sim.engine import Simulator
from .packet import Packet
from .queue import Gateway


class QueueMonitor:
    """Attach to a gateway and accumulate occupancy/drop statistics."""

    def __init__(self, sim: Simulator, gateway: Gateway) -> None:
        self.sim = sim
        self.gateway = gateway
        self.drops_by_flow: Counter = Counter()
        self.enqueues_by_flow: Counter = Counter()
        self._last_time = sim.now
        self._last_depth = gateway.depth
        self._area = 0.0  # integral of depth over time
        self._max_depth = gateway.depth
        self._start = sim.now
        gateway.on_drop(self._observe_drop)
        gateway.on_enqueue(self._observe_enqueue)
        gateway.on_dequeue(self._observe_dequeue)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        now = self.sim.now
        self._area += self._last_depth * (now - self._last_time)
        self._last_time = now
        self._last_depth = self.gateway.depth
        if self._last_depth > self._max_depth:
            self._max_depth = self._last_depth

    def _observe_drop(self, now: float, packet: Packet, reason: str) -> None:
        self._advance()
        self.drops_by_flow[packet.flow] += 1

    def _observe_enqueue(self, now: float, packet: Packet, depth: int) -> None:
        self._advance()
        self.enqueues_by_flow[packet.flow] += 1

    def _observe_dequeue(self, now: float, packet: Packet) -> None:
        self._advance()

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Fold in the time since the last observation (call at run end)."""
        self._advance()

    @property
    def total_drops(self) -> int:
        """Total packets dropped at this gateway since attachment."""
        return sum(self.drops_by_flow.values())

    @property
    def max_depth(self) -> int:
        """Largest queue depth observed (folds in time since last event)."""
        self._advance()
        return self._max_depth

    def mean_depth(self) -> float:
        """Time-weighted average queue depth since attachment.

        Reads fold the idle tail in themselves (``_advance``), so the
        value is correct even without an explicit :meth:`finish` after the
        last enqueue/drop.
        """
        self._advance()
        elapsed = self._last_time - self._start
        if elapsed <= 0:
            return float(self._last_depth)
        return self._area / elapsed

    def loss_rate(self) -> float:
        """Fraction of offered packets dropped."""
        offered = sum(self.enqueues_by_flow.values()) + self.total_drops
        return self.total_drops / offered if offered else 0.0
