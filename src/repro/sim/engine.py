"""The discrete-event simulation engine.

This is the substrate everything else runs on — the Python stand-in for the
NS2 core the paper used.  Like ns-2's scheduler it keeps one time-ordered
event queue, here a binary heap on :mod:`heapq`:

* :meth:`Simulator.schedule` and :meth:`Simulator.post_at` insert a
  callback at an absolute time,
* :meth:`Simulator.schedule_after` and :meth:`Simulator.post` at a relative
  offset,
* :meth:`Simulator.run` drains the heap until a time horizon or until the
  queue empties.

Determinism: same-seed runs replay exactly.  Ties are broken by insertion
order, and all randomness must come from :class:`repro.sim.rng.RngStreams`.

Hot-path layout (this engine executes a few million events per simulated
minute, so its inner loop dominates every experiment's wall time):

* An :class:`Event` handle is allocated only where somebody keeps it:
  :meth:`Simulator.schedule` / :meth:`Simulator.schedule_after` return one
  (timers store and cancel it), :meth:`Simulator.post` /
  :meth:`Simulator.post_at` are fire-and-forget, for every call site that
  would throw it away — most of a figure run's events are ``Link`` posts.
  Both forms take their sequence number at the same point, so which one a
  site uses never moves ``(time, seq)`` order.
* A queue entry is a tuple led by ``(time, seq)``: ``(time, seq, Event)``
  for a handle, ``(time, seq, None, callback, args, name)`` for a post.
  Tuple comparison resolves on the leading float in C, and ``seq`` is
  unique, so sifting never compares two handles.  An entry scheduled at
  ``now`` while :meth:`Simulator.run` drains goes into the heap like any
  other and runs after every queued entry of its instant: its ``seq`` is
  the largest.  :meth:`Simulator.run` calls a post straight
  from its entry and builds an :class:`Event` for it only while
  :attr:`Simulator.event_hook` is installed.
* Cancellation stays lazy (skip at pop time) with the O(1) cancelled
  counter and in-place compaction introduced in PR 1.
* A restarted timer does not cancel: :meth:`Simulator.rekey` gives the
  handle its new ``(time, seq)`` and leaves its entry where it is, so the
  queue holds one entry per handle whose key never exceeds the handle's.
  An entry whose ``seq`` no longer matches its handle's is not due: when
  it surfaces, :meth:`Simulator.run` (and :meth:`Simulator.peek`) files it
  again at the handle's key instead of executing it.  Dispatch order,
  :meth:`Simulator.pending`, ``events_executed`` and the ``event_hook``
  stream are therefore those of cancel-and-reschedule.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SchedulingError
from .events import Event
from .rng import RngStreams

_heappush = heapq.heappush
_heappop = heapq.heappop
_heapreplace = heapq.heapreplace

#: A queue entry, ordered by its leading ``(time, seq)`` pair: ``(time, seq,
#: Event)``, or ``(time, seq, None, callback, args, name)`` for a post.
Entry = Tuple[Any, ...]


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
        if not time >= self.now:  # also true of NaN, which orders nowhere
            raise SchedulingError(
                f"cannot schedule at t={time:.9f} before now={self.now:.9f}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, name=name)
        event._on_cancel = self._note_cancelled
        _heappush(self._queue, (time, seq, event))
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` after a non-negative ``delay``."""
        if not delay >= 0:  # negative or NaN
            raise SchedulingError(f"negative or NaN delay: {delay}")
        return self.schedule(self.now + delay, callback, *args, name=name)

    def post(self, delay: float, callback: Callable[..., Any],
             args: Tuple[Any, ...] = (), name: Optional[str] = None) -> None:
        """Fire-and-forget :meth:`schedule_after`: no handle, no cancelling.

        :meth:`post_at` at ``now + delay``; all-positional because
        ``*args``/``name=`` passing is itself a per-event cost.
        """
        if not delay >= 0:  # negative or NaN
            raise SchedulingError(f"negative or NaN delay: {delay}")
        self.post_at(self.now + delay, callback, args, name)

    def post_at(self, time: float, callback: Callable[..., Any],
                args: Tuple[Any, ...] = (), name: Optional[str] = None) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no cancelling.

        The dominant entry point: a ``Link`` posts every arrival and wake-up
        at an absolute instant it computed itself, so the float the event
        carries is exactly that sum, not ``now + (sum - now)``.
        """
        if not time >= self.now:  # also true of NaN, which orders nowhere
            raise SchedulingError(
                f"cannot schedule at t={time:.9f} before now={self.now:.9f}"
            )
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (time, seq, None, callback, args, name))

    def rekey(self, event: Event, delay: float) -> bool:
        """Move the queued ``event`` to ``now + delay`` without a new entry.

        The handle takes a fresh sequence number exactly where
        :meth:`schedule_after` would, so the dispatch order is that of
        ``event.cancel()`` + ``schedule_after(delay, ...)``; its queue entry
        stays put and is filed again at the new key when it surfaces.
        Returns False, changing nothing, when that cannot be done: the
        handle already fired or was cancelled, or the new time is earlier
        than its entry's (the entry would surface late; a negative or NaN
        delay lands here too).  The caller then cancels and schedules.
        """
        time = self.now + delay
        if event._on_cancel is None or not time >= event._filed_at:
            return False
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.seq = seq
        return True

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
        if until != until:  # NaN: no event time would ever exceed it
            raise SchedulingError("run(until=nan)")
        self._running = True
        self._stopped = False
        executed = 0
        queue = self._queue
        pop = _heappop
        try:
            while queue:
                if self._stopped:
                    break
                if max_events is not None and executed >= max_events:
                    break
                entry = queue[0]
                event = entry[2]
                if event is not None:
                    if event.cancelled:
                        pop(queue)
                        self._cancelled -= 1
                        continue
                    if entry[1] != event.seq:  # re-keyed: not due yet
                        event._filed_at = event.time
                        _heapreplace(queue, (event.time, event.seq, event))
                        continue
                if until is not None and entry[0] > until:
                    break
                pop(queue)
                self.now = entry[0]
                hook = self.event_hook
                if event is None:  # a post: a handle exists only for a hook
                    if hook is not None:
                        hook(Event(entry[0], entry[1], entry[3], entry[4],
                                   entry[5]))
                    entry[3](*entry[4])
                else:
                    event._on_cancel = None  # left the queue; cancel() is a no-op now
                    if hook is not None:
                        hook(event)
                    event.callback(*event.args)
                executed += 1
        finally:
            self._running = False
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
                and self._cancelled * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Safe at any point: heap order depends only on ``(time, seq)``,
        which survives the rebuild, so the pop order of the remaining
        live events — and therefore replay determinism — is unchanged.
        In-place (slice assignment) because :meth:`run` holds a local alias
        to the heap while draining it.
        """
        self._queue[:] = [entry for entry in self._queue
                          if entry[2] is None or not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return len(self._queue) - self._cancelled

    def queue_size(self) -> int:
        """Physical queue size, including not-yet-compacted cancelled entries."""
        return len(self._queue)

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty.

        Clears the head of the heap as :meth:`run` would: cancelled entries
        go, re-keyed ones are filed again at their handle's key.
        """
        queue = self._queue
        while queue and queue[0][2] is not None:
            event = queue[0][2]
            if event.cancelled:
                _heappop(queue)
                self._cancelled -= 1
            elif queue[0][1] != event.seq:
                event._filed_at = event.time
                _heapreplace(queue, (event.time, event.seq, event))
            else:
                break
        return queue[0][0] if queue else None

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending()}, "
            f"executed={self.events_executed})"
        )
