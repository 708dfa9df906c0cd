"""Random Early Detection (RED) gateway — Floyd & Jacobson 1993.

The paper's key property of RED (§1): *all connections sharing the gateway
see the same loss probability*, which makes window-based fairness analysis
tractable (Theorem I).  We implement the full algorithm from the RED paper,
with the parameterization the authors used in NS2:

* ``min_th = 5``, ``max_th = 15`` packets, physical buffer 20 packets
  (:func:`red_thresholds`: 25 % / 75 % of any buffer),
* queue-average weight ``w_q = 0.002``,
* maximum marking probability ``max_p = 0.1`` (ns-2 default ``linterm = 10``),
* the count-since-last-drop correction that spaces drops roughly uniformly,
* idle-time aging of the average using the link's mean packet time.

Packets are *dropped*, not ECN-marked, by default — the 1998 Internet had
no ECN — with RFC 3168-style marking available as an extension.

Two variants extend the 1993 algorithm for the AQM × heterogeneity study
matrix (ROADMAP item 4):

* **byte mode** (``byte_mode=True``) — the queue average and thresholds
  are measured in *bytes* and the early-notification probability is
  scaled by ``packet_size / mean_packet_size``, so large packets are
  proportionally more likely to be dropped.  De Cnodder et al. (*Effect
  of different packet sizes on RED performance*) show this changes loss
  allocation qualitatively under mixed packet sizes: packet-mode RED
  equalizes per-*packet* loss rates, byte-mode RED per-*byte* rates.
* **adaptive RED** (:class:`AdaptiveREDQueue`) — Floyd, Gummadi &
  Shenker 2001: ``max_p`` is adapted by AIMD every ``adapt_interval``
  seconds to hold the average queue inside a target band centred between
  the thresholds, making loss rates self-tuning across load levels.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..units import DEFAULT_PACKET_SIZE
from .packet import Packet
from .queue import Gateway

#: Queue-average weight of the paper's RED gateways.
W_Q = 0.002


def red_thresholds(buffer: float) -> Tuple[float, float]:
    """``(min_th, max_th)`` for a physical buffer of ``buffer`` packets.

    25 % / 75 % of the buffer, at least one packet apart: the paper's 5/15
    at its 20-packet buffer, and the rule every RED gateway (packet and
    fluid) is built by.
    """
    min_th = max(1.0, 0.25 * buffer)
    return min_th, max(min_th + 1.0, 0.75 * buffer)


class REDQueue(Gateway):
    """A RED gateway with drop-based congestion notification."""

    discipline = "red"

    def __init__(
        self,
        capacity: int = 20,
        min_th: float = 5.0,
        max_th: float = 15.0,
        w_q: float = W_Q,
        max_p: float = 0.1,
        rng: Optional[random.Random] = None,
        mark_ecn: bool = False,
        byte_mode: bool = False,
        mean_packet_size: int = DEFAULT_PACKET_SIZE,
    ) -> None:
        super().__init__(capacity)
        if not 0 < min_th < max_th:
            raise ValueError(f"need 0 < min_th < max_th, got {min_th}, {max_th}")
        if not 0 < w_q <= 1:
            raise ValueError(f"w_q out of (0, 1]: {w_q}")
        if not 0 < max_p <= 1:
            raise ValueError(f"max_p out of (0, 1]: {max_p}")
        if mean_packet_size <= 0:
            raise ValueError(f"non-positive mean_packet_size: {mean_packet_size}")
        if rng is None:
            # A silent random.Random(0) default would bypass the simulator's
            # seeded streams: every directly constructed RED gateway would
            # share one drop sequence, and same-seed replay would diverge.
            raise ValueError(
                "REDQueue requires an injected rng; use "
                "sim.rng.stream('red.<name>') or net.GatewayFactory('red', sim)"
            )
        self.min_th = min_th
        self.max_th = max_th
        self.w_q = w_q
        self.max_p = max_p
        #: Hoisted ``max_th - min_th`` for the per-packet drop-probability
        #: computation.  The same subtraction the inline expression would
        #: perform, done once — bitwise-identical p_b, one fewer float op
        #: per marked-region arrival.
        self._th_span = max_th - min_th
        self.rng = rng
        #: When True, early notifications MARK ECN-capable packets instead
        #: of dropping them (RFC 3168 style; forced and overflow regions
        #: still drop).  An extension beyond the paper's 1998 setting.
        self.mark_ecn = mark_ecn
        #: Byte-mode RED: ``avg`` and the thresholds are in bytes, and the
        #: early-notification probability scales with packet size.
        self.byte_mode = byte_mode
        #: Mean packet size the byte-mode probability scaling normalizes by.
        self.mean_packet_size = mean_packet_size
        #: EWMA of the queue length, in packets (bytes when ``byte_mode``).
        self.avg = 0.0
        #: Packets since the last early drop (the uniformization counter).
        self.count = -1
        self._idle_since: Optional[float] = 0.0
        # statistics split by cause
        self.early_drops = 0
        self.forced_drops = 0
        self.overflow_drops = 0
        self.ecn_marks = 0

    def _drop_probability(self, size: int) -> float:
        """The geometric inter-drop correction p_a from the RED paper.

        ``size`` only matters in byte mode, where the base probability is
        scaled by ``size / mean_packet_size`` (ns-2's ``bytes_`` scaling)
        *before* the count correction, so big packets are proportionally
        likelier to carry the congestion notification.
        """
        p_b = self.max_p * (self.avg - self.min_th) / self._th_span
        p_b = min(p_b, self.max_p)
        if self.byte_mode:
            p_b = min(1.0, p_b * size / self.mean_packet_size)
        if self.count * p_b >= 1.0:
            return 1.0
        return p_b / (1.0 - self.count * p_b)

    # ------------------------------------------------------------------
    def _admit(self, now: float, packet: Packet) -> bool:
        """RED's admission law: refresh ``avg``, then drop, mark or admit.

        The one copy shared by :meth:`enqueue` and :meth:`serve`; it leaves
        the deque alone, so the caller decides where an admitted packet goes.
        """
        # Refresh avg at packet arrival, aging it across idle periods.
        depth = self.bytes_queued if self.byte_mode else len(self._queue)
        if depth:
            self.avg += self.w_q * (depth - self.avg)
        elif self._idle_since is not None and self.mean_pkt_time > 0:
            # Queue empty: pretend m small packets arrived to an empty
            # queue, where m is how many packets could have been serviced
            # while idle.  (In byte mode the decay exponent is unchanged —
            # the average is in bytes, but it still decays per *packet*
            # service opportunity.)
            m = (now - self._idle_since) / self.mean_pkt_time
            self.avg *= (1.0 - self.w_q) ** m
            # Advance the idle mark: if this arrival is dropped and the
            # queue stays empty, the next arrival must age from *here*,
            # not decay the already-decayed average over the same gap.
            self._idle_since = now
        else:
            self.avg += self.w_q * (0.0 - self.avg)
        # _idle_since is cleared on *admit* only (see below).  Clearing it
        # before the accept/drop decision permanently cancelled idle aging
        # whenever an arrival was dropped at an empty queue (inflated avg
        # after a long drain): the stale average never decayed and the
        # idle gateway kept force-dropping forever.
        if len(self._queue) >= self.capacity:
            # Physical overflow — can happen in bursts even under RED.
            self.overflow_drops += 1
            self._notify_drop(now, packet, "overflow")
            return False
        if self.avg >= self.max_th:
            self.count = 0
            self.forced_drops += 1
            self._notify_drop(now, packet, "forced")
            return False
        if self.avg > self.min_th:
            self.count += 1
            if self.rng.random() < self._drop_probability(packet.size):
                self.count = 0
                if self.mark_ecn and packet.ect:
                    self.ecn_marks += 1
                    packet.ce = True
                else:
                    self.early_drops += 1
                    self._notify_drop(now, packet, "early")
                    return False
        else:
            self.count = -1
        self._idle_since = None
        return True

    def enqueue(self, now: float, packet: Packet) -> bool:
        if self._admit(now, packet):
            self._accept(now, packet)
            return True
        return False

    def serve(self, now: float, packet: Packet) -> Optional[Packet]:
        if not self._admit(now, packet):
            return None
        if self._queue or self._enqueue_hooks or self._dequeue_hooks:
            self._accept(now, packet)
            return self.dequeue(now)
        # accepted and dequeued at once: the queue is empty again from now
        self.enqueued += 1
        self.dequeued += 1
        if not self.peak_depth:
            self.peak_depth = 1
        self._idle_since = now
        return packet

    def dequeue(self, now: float) -> Optional[Packet]:
        packet = super().dequeue(now)
        if packet is not None and not self._queue:
            self._idle_since = now
        return packet


class AdaptiveREDQueue(REDQueue):
    """Adaptive RED (Floyd, Gummadi & Shenker 2001): self-tuning ``max_p``.

    Every ``adapt_interval`` seconds (applied lazily at arrival time, so
    the gateway needs no timer wiring) ``max_p`` is nudged by AIMD to keep
    the average queue inside the target band
    ``[min_th + 0.4*span, min_th + 0.6*span]``:

    * ``avg`` above the band → ``max_p += alpha`` (additive increase,
      ``alpha = min(0.01, max_p / 4)``), capped at ``top``;
    * ``avg`` below the band → ``max_p *= beta`` (multiplicative decrease,
      ``beta = 0.9``), floored at ``bottom``.

    Everything else — averaging, count correction, ECN, byte mode — is
    inherited unchanged from :class:`REDQueue`.
    """

    discipline = "red-adaptive"

    #: AIMD constants and ``max_p`` clamps from the Adaptive RED paper.
    BETA = 0.9
    MAX_P_TOP = 0.5
    MAX_P_BOTTOM = 0.01

    def __init__(self, *args, adapt_interval: float = 0.5, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if adapt_interval <= 0:
            raise ValueError(f"non-positive adapt_interval: {adapt_interval}")
        self.adapt_interval = adapt_interval
        self._target_lo = self.min_th + 0.4 * self._th_span
        self._target_hi = self.min_th + 0.6 * self._th_span
        self._next_adapt = adapt_interval
        self.adaptations = 0

    def _adapt(self, now: float) -> None:
        """Catch up on every adaptation interval that has elapsed."""
        while self._next_adapt <= now:
            if self.avg > self._target_hi and self.max_p < self.MAX_P_TOP:
                self.max_p = min(self.MAX_P_TOP,
                                 self.max_p + min(0.01, self.max_p / 4.0))
                self.adaptations += 1
            elif self.avg < self._target_lo and self.max_p > self.MAX_P_BOTTOM:
                self.max_p = max(self.MAX_P_BOTTOM, self.max_p * self.BETA)
                self.adaptations += 1
            self._next_adapt += self.adapt_interval

    def _admit(self, now: float, packet: Packet) -> bool:
        if self._next_adapt <= now:
            self._adapt(now)
        return REDQueue._admit(self, now, packet)
