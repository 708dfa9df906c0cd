"""PIE — Proportional Integral controller Enhanced AQM (RFC 8033).

PIE keeps queueing *latency* near a target by maintaining a drop
probability ``p`` that is updated every ``t_update`` (default 15 ms)
from the current queue delay and its trend:

    p += alpha * (qdelay - target) + beta * (qdelay - qdelay_old)

Arrivals are then dropped with probability ``p`` (cause ``"early"``,
matching RED's probabilistic-notification cause), with the RFC's safety
guards: no drops while the queue is nearly empty or while both ``p`` and
the delay are small, and exponential decay of ``p`` when the queue sits
idle.  Like RED — and unlike CoDel — all of this happens at *enqueue*
time, so the standard arrival-drop conservation invariants apply.

The update step runs lazily at arrival time (catching up on every
elapsed ``t_update`` boundary), so the gateway needs no timer wiring and
checkpoints carry the whole controller state.  Queue delay is estimated
from occupancy via the link's mean packet service time
(``depth * mean_pkt_time``), the same Little's-law style estimate the
RFC uses in its basic form (§4.3: average dequeue rate).

Like :class:`~repro.net.red.REDQueue`, an injected seeded RNG is
mandatory — the drop coin is part of the same-seed replay contract.
"""

from __future__ import annotations

import random
from typing import Optional

from ..units import ms
from .packet import Packet
from .queue import Gateway


class PIEQueue(Gateway):
    """A PIE gateway: PI-controlled drop probability targeting low delay."""

    discipline = "pie"

    #: RFC 8033 §4.2 base gains (scaled by the auto-tuning table below).
    ALPHA = 0.125
    BETA = 1.25
    #: Exponential decay factor applied to ``p`` per update while idle.
    DECAY = 0.98

    def __init__(
        self,
        capacity: int = 20,
        target: float = ms(15),
        t_update: float = ms(15),
        rng: Optional[random.Random] = None,
        mark_ecn: bool = False,
    ) -> None:
        super().__init__(capacity)
        if target <= 0:
            raise ValueError(f"non-positive delay target: {target}")
        if t_update <= 0:
            raise ValueError(f"non-positive t_update: {t_update}")
        if rng is None:
            # Same contract as REDQueue: a hidden default RNG would escape
            # the simulator's seeded streams and break same-seed replay.
            raise ValueError(
                "PIEQueue requires an injected rng; use "
                "sim.rng.stream('pie.<name>') or net.GatewayFactory('pie', sim)"
            )
        #: Latency target the controller steers the queue delay toward.
        self.target = target
        #: Controller update period (applied lazily at arrival time).
        self.t_update = t_update
        self.rng = rng
        self.mark_ecn = mark_ecn
        #: Current drop probability, clamped to [0, 1].
        self.p = 0.0
        self._qdelay_old = 0.0
        self._next_update = t_update
        # statistics
        self.early_drops = 0
        self.ecn_marks = 0
        self.updates = 0

    # ------------------------------------------------------------------
    def _qdelay(self) -> float:
        """Estimated queueing delay: occupancy x mean service time."""
        return len(self._queue) * self.mean_pkt_time

    def _scaled_gains(self) -> tuple:
        """RFC 8033 §4.2 auto-tuning: shrink gains while ``p`` is small.

        Small probabilities need proportionally small corrections or the
        controller oscillates; the RFC's table is a staircase of /8
        steps below 1%, /2 below 10%.
        """
        if self.p < 0.000001:
            scale = 1.0 / 2048
        elif self.p < 0.00001:
            scale = 1.0 / 512
        elif self.p < 0.0001:
            scale = 1.0 / 128
        elif self.p < 0.001:
            scale = 1.0 / 32
        elif self.p < 0.01:
            scale = 1.0 / 8
        elif self.p < 0.1:
            scale = 1.0 / 2
        else:
            scale = 1.0
        return self.ALPHA * scale, self.BETA * scale

    def _maybe_update(self, now: float) -> None:
        """Catch up on every ``t_update`` boundary elapsed before ``now``."""
        while self._next_update <= now:
            qdelay = self._qdelay()
            alpha, beta = self._scaled_gains()
            self.p += alpha * (qdelay - self.target) + beta * (
                qdelay - self._qdelay_old
            )
            if qdelay == 0.0 and self._qdelay_old == 0.0:
                # Idle queue: decay toward zero so a long-drained gateway
                # does not greet the next burst with a stale probability.
                self.p *= self.DECAY
            self.p = min(1.0, max(0.0, self.p))
            self._qdelay_old = qdelay
            self._next_update += self.t_update
            self.updates += 1

    def _safe_to_accept(self, qdelay: float) -> bool:
        """RFC 8033 §4.1 burst protection: skip the coin near-empty/small-p."""
        return len(self._queue) <= 1 or (
            self.p < 0.2 and qdelay < self.target / 2.0
        )

    # ------------------------------------------------------------------
    def enqueue(self, now: float, packet: Packet) -> bool:
        self._maybe_update(now)
        if len(self._queue) >= self.capacity:
            self._notify_drop(now, packet, "overflow")
            return False
        if (
            self.p > 0.0
            and not self._safe_to_accept(self._qdelay())
            and self.rng.random() < self.p
        ):
            if self.mark_ecn and packet.ect:
                self.ecn_marks += 1
                packet.ce = True
            else:
                self.early_drops += 1
                self._notify_drop(now, packet, "early")
                return False
        self._accept(now, packet)
        return True
