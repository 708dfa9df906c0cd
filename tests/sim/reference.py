"""The pre-PR-20 engine and link, kept verbatim as the hop diet's oracle.

Until PR 20 every scheduled callback was an :class:`~repro.sim.events.Event`
handle: ``schedule_after(delay, callback, *args, name=...)`` built one per
event whether or not anybody kept it, the heap held ``(time, seq, Event)``
and the ready lane bare ``Event``s, and a ``Link`` learnt that its gateway
was empty by calling ``_serve_next``.  ``repro.sim.engine`` now also has the
handle-free ``post`` and ``repro.net.link`` uses it; this module is the old
``sim/engine.py`` and the old ``net/link.py``'s ``Link``, moved here
unchanged (one file, imports made absolute, module docstrings dropped) so
``test_engine_oracle.py`` can require the new engine to execute the same
``(time, seq, name)`` stream, return the same values and keep the same
clock, and whole experiments to produce pickle-identical reports with this
pair swapped in.  Do not optimise or tidy it: its behaviour *is* the
contract.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError, SchedulingError
from repro.net.packet import Packet
from repro.net.queue import Gateway
from repro.sim.events import Event
from repro.sim.rng import RngStreams
from repro.units import BITS_PER_BYTE, DEFAULT_PACKET_SIZE, transmission_time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.node import Node


# ----------------------------------------------------------------------
# sim/engine.py
# ----------------------------------------------------------------------
_heappush = heapq.heappush
_heappop = heapq.heappop

#: A heap entry; ordering is driven by the leading ``(time, seq)`` pair.
Entry = Tuple[float, int, Event]


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    Parameters
    ----------
    seed:
        Master seed for the per-component random streams available through
        :attr:`rng`.
    """

    #: Compact the heap once at least this many cancelled events are queued
    #: *and* they outnumber the live ones (amortized O(log n) per event).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, seed: int = 1) -> None:
        self.now: float = 0.0
        self._queue: List[Entry] = []
        #: Same-timestamp fast lane: events scheduled at exactly ``now``
        #: while :meth:`run` is draining.  Always empty between runs.
        self._ready: Deque[Event] = deque()
        self._seq = 0
        self._running = False
        self._stopped = False
        self._cancelled = 0
        self.rng = RngStreams(seed)
        #: Optional observer called with each :class:`Event` just before it
        #: executes.  The audit layer's flight recorder uses this to keep
        #: the recent event stream; ``None`` (the default) costs one
        #: attribute check per event.
        self.event_hook: Optional[Callable[[Event], None]] = None
        #: Count of events executed so far (for benchmarking / sanity checks).
        self.events_executed = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``.

        Scheduling in the past raises :class:`SchedulingError`; scheduling
        exactly "now" is allowed and runs after the current event finishes.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time:.9f} before now={self.now:.9f}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, name=name)
        event._on_cancel = self._note_cancelled
        if self._running and time == self.now:
            # Same-instant batch: no heap churn, FIFO == (time, seq) order
            # because this seq exceeds that of every queued equal-time event.
            self._ready.append(event)
        else:
            _heappush(self._queue, (time, seq, event))
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` after a non-negative ``delay``.

        This is the dominant scheduling entry point (links and timers use
        relative delays exclusively), so :meth:`schedule` is inlined here:
        ``now + delay`` can never be in the past once the delay is
        non-negative, which drops one call and one comparison per event.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        now = self.now
        time = now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, name=name)
        event._on_cancel = self._note_cancelled
        if time == now and self._running:
            self._ready.append(event)
        else:
            _heappush(self._queue, (time, seq, event))
        return event

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events in time order.

        Parameters
        ----------
        until:
            Stop once the next event is strictly later than this horizon;
            the clock is then advanced to ``until``.  ``None`` drains the
            queue completely.
        max_events:
            Safety valve for tests: stop after this many executed events.

        Returns the number of events executed during this call.
        """
        if self._running:
            raise SchedulingError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        executed = 0
        queue = self._queue
        ready = self._ready
        pop = _heappop
        try:
            while queue or ready:
                if self._stopped:
                    break
                if max_events is not None and executed >= max_events:
                    break
                # Ready events carry the current timestamp and, per the
                # invariant above, out-sequence every equal-time heap entry
                # — so they run only once the heap holds nothing at `now`.
                if ready and (not queue or queue[0][0] > self.now):
                    event = ready.popleft()
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                else:
                    entry = queue[0]
                    event = entry[2]
                    if event.cancelled:
                        pop(queue)
                        self._cancelled -= 1
                        continue
                    if until is not None and entry[0] > until:
                        break
                    pop(queue)
                    self.now = entry[0]
                event._on_cancel = None  # left the queue; cancel() is a no-op now
                hook = self.event_hook
                if hook is not None:
                    hook(event)
                event.callback(*event.args)
                executed += 1
        finally:
            self._running = False
            if ready:
                # stop()/max_events can leave immediates behind; park them
                # back in the heap so peek()/pending() and the next run()
                # see a single, totally ordered queue.
                for event in ready:
                    _heappush(queue, (event.time, event.seq, event))
                ready.clear()
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        self.events_executed += executed
        return executed

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # cancelled-event bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """A queued event was cancelled (called via ``Event._on_cancel``).

        Keeps :meth:`pending` O(1) and compacts the heap once cancelled
        entries dominate it, so cancel-heavy workloads (every TCP timer
        reschedule cancels its predecessor) stay bounded in memory instead
        of dragging dead entries along until they surface at the top.
        """
        self._cancelled += 1
        if (self._cancelled >= self.COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._queue) + len(self._ready)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Safe at any point: heap order depends only on ``(time, seq)``,
        which survives the rebuild, so the pop order of the remaining
        live events — and therefore replay determinism — is unchanged.
        In-place (slice assignment / deque mutation) because :meth:`run`
        holds local aliases to both containers while draining them.
        """
        self._queue[:] = [entry for entry in self._queue
                          if not entry[2].cancelled]
        heapq.heapify(self._queue)
        if self._ready:
            live = [event for event in self._ready if not event.cancelled]
            self._ready.clear()
            self._ready.extend(live)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return len(self._queue) + len(self._ready) - self._cancelled

    def queue_size(self) -> int:
        """Physical queue size, including not-yet-compacted cancelled entries."""
        return len(self._queue) + len(self._ready)

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            _heappop(queue)
            self._cancelled -= 1
        ready = self._ready
        while ready and ready[0].cancelled:
            ready.popleft()
            self._cancelled -= 1
        if queue and ready:
            return min(queue[0][0], ready[0].time)
        if queue:
            return queue[0][0]
        return ready[0].time if ready else None

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending()}, "
            f"executed={self.events_executed})"
        )


# ----------------------------------------------------------------------
# net/link.py
# ----------------------------------------------------------------------
DeliverHook = Callable[[float, Packet], None]


class Link:
    """One direction of a point-to-point link."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        src: "Node",
        dst: "Node",
        bandwidth_bps: float,
        delay_s: float,
        gateway: Gateway,
        mean_packet_size: int = DEFAULT_PACKET_SIZE,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ConfigurationError(f"link {name}: non-positive bandwidth")
        if delay_s < 0:
            raise ConfigurationError(f"link {name}: negative delay")
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.gateway = gateway
        self._busy = False
        self._tx_start = 0.0
        self._tx_size = 0
        # lifetime statistics
        self.packets_sent = 0
        self.bytes_sent = 0
        self._deliver_hooks: List[DeliverHook] = []
        # Event labels, precomputed: building two f-strings per forwarded
        # packet showed up in figure-7 profiles.
        self._tx_name = f"{name}.tx"
        self._rx_name = f"{name}.rx"
        if mean_packet_size <= 0:
            raise ConfigurationError(
                f"link {name}: non-positive mean_packet_size"
            )
        #: Mean packet size this link is provisioned for; RED ages its
        #: average — and byte-mode RED scales its thresholds — by the
        #: matching service time, so mixed-size scenarios must pass their
        #: configured mean instead of inheriting the 1000-byte default.
        self.mean_packet_size = mean_packet_size
        gateway.mean_pkt_time = transmission_time(mean_packet_size, bandwidth_bps)

    # ------------------------------------------------------------------
    def on_deliver(self, hook: DeliverHook) -> None:
        """Register ``hook(now, packet)`` to observe downstream arrivals.

        Hooks fire after propagation, just before the destination node's
        ``receive``.  Register before traffic starts: packets already
        propagating when the first hook is added are delivered unobserved.
        """
        self._deliver_hooks.append(hook)

    def send(self, packet: Packet) -> None:
        """Entry point used by the upstream node's forwarding logic."""
        accepted = self.gateway.enqueue(self.sim.now, packet)
        if accepted and not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        sim = self.sim
        packet = self.gateway.dequeue(sim.now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self._tx_start = sim.now
        size = packet.size
        self._tx_size = size
        # Inlined transmission_time(size, bandwidth): same arithmetic, no
        # call overhead on the per-packet path (bandwidth was validated
        # positive at construction).
        tx = size * BITS_PER_BYTE / self.bandwidth_bps
        sim.schedule_after(tx, self._transmission_done, packet,
                           name=self._tx_name)

    def _transmission_done(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.size
        receive = self._arrive if self._deliver_hooks else self.dst.receive
        self.sim.schedule_after(
            self.delay_s, receive, packet, name=self._rx_name
        )
        self._serve_next()

    def _arrive(self, packet: Packet) -> None:
        for hook in self._deliver_hooks:
            hook(self.sim.now, packet)
        self.dst.receive(packet)

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._busy

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds spent transmitting bits.

        ``bytes_sent`` is credited at serialization *end*, so the packet
        currently in service would be invisible to short measurement
        windows; its already-serialized fraction is added at read time.
        """
        if elapsed <= 0:
            return 0.0
        bits = self.bytes_sent * 8.0
        if self._busy:
            progress = max(0.0, self.sim.now - self._tx_start)
            bits += min(self._tx_size * 8.0, self.bandwidth_bps * progress)
        return min(1.0, bits / (self.bandwidth_bps * elapsed))

    def __repr__(self) -> str:
        return (
            f"Link({self.name}, {self.bandwidth_bps/1e6:.3f} Mbps, "
            f"{self.delay_s*1e3:.1f} ms, q={self.gateway.discipline})"
        )
