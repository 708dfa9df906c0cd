"""Recurring processes built on top of the raw event engine.

Congestion-control agents need timers that can be restarted (retransmission
timers) and periodic samplers (window/throughput probes).  These helpers
encapsulate the restart bookkeeping so agent code stays readable.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import ConfigurationError
from .engine import Simulator
from .events import Event


class Timer:
    """A restartable one-shot timer.

    ``callback`` fires once per :meth:`start` unless :meth:`stop` or a later
    :meth:`start` (which restarts the countdown) intervenes.

    A restart of an armed timer re-keys its queued event in place
    (:meth:`Simulator.rekey`) rather than cancelling it and queueing a new
    one, so a TCP sender restarting its RTO timer on every ACK leaves no
    dead entries in the heap.  When the engine cannot re-key (the new
    expiry is earlier than the queued entry's), the restart cancels and
    schedules; either way the timer fires at the same ``(time, seq)``.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "timer") -> None:
        self.sim = sim
        self.callback = callback
        self.name = name
        self._event: Optional[Event] = None

    @property
    def pending(self) -> bool:
        """True while the timer is armed."""
        return self._event is not None and self._event.active

    @property
    def expiry(self) -> Optional[float]:
        """Absolute expiry time, or ``None`` when not armed."""
        if self._event is not None and self._event.active:
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        event = self._event
        if event is not None and self.sim.rekey(event, delay):
            return
        self.stop()
        self._event = self.sim.schedule_after(delay, self._fire, name=self.name)

    def stop(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.callback()


class PeriodicProcess:
    """Calls ``callback`` every ``interval`` seconds until stopped."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        name: str = "periodic",
        start_offset: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"non-positive interval: {interval}")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.name = name
        self._event: Optional[Event] = None
        self._start_offset = interval if start_offset is None else start_offset

    @property
    def running(self) -> bool:
        """True while ticks are scheduled."""
        return self._event is not None and self._event.active

    def start(self) -> None:
        """Begin ticking; the first tick fires after ``start_offset``."""
        if self.running:
            return
        self._event = self.sim.schedule_after(self._start_offset, self._tick, name=self.name)

    def stop(self) -> None:
        """Cancel all future ticks."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        event = self._event
        self.callback()
        # re-arm after the callback (seq order), unless it stopped the process
        if self._event is event:
            self._event = self.sim.schedule_after(self.interval, self._tick, name=self.name)
