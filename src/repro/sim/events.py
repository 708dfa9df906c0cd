"""Event objects for the discrete-event engine.

An :class:`Event` is a handle to a scheduled callback.  Handles support
cancellation (lazy deletion: the engine skips cancelled entries when they
reach the head of the heap).

The engine orders its queue by ``(time, seq)``: events scheduled for the
same instant fire in the order they were scheduled, which keeps runs
deterministic — an essential property for a simulator whose whole point is
studying *random* congestion-control decisions under controlled seeds.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


class Event:
    """A scheduled callback, keyed by ``(time, seq)`` in the engine's queue."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "name",
                 "_on_cancel", "_filed_at")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        name: Optional[str] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.name = name
        #: Set by the engine at schedule time so it can keep an O(1) count
        #: of cancelled-but-queued events (and compact the heap lazily);
        #: cleared once the event leaves the queue.
        self._on_cancel: Optional[Callable[[], None]] = None
        #: Time of the queue entry that carries this handle.  Equal to
        #: ``time`` except after :meth:`~repro.sim.engine.Simulator.rekey`
        #: moved the handle later and the entry has not surfaced yet.
        self._filed_at = time

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine will skip it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()
            self._on_cancel = None

    @property
    def active(self) -> bool:
        """True while the event is still pending and not cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:
        label = self.name or getattr(self.callback, "__qualname__", "callback")
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {label}, {state})"
