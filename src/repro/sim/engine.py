"""The discrete-event simulation engine.

This is the substrate everything else runs on — the Python stand-in for the
NS2 core the paper used.  It is a classic calendar-queue-style engine built
on :mod:`heapq`:

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
  Tuple comparison resolves on the leading float in C, so sifting never
  calls ``Event.__lt__`` — which profiling showed was the single hottest
  function in a figure-7 run (40M+ calls).  The ``(time, seq)`` total
  order, and therefore replay determinism, is exactly the order
  :class:`Event` defines.  :meth:`Simulator.run` calls a post straight
  from its entry and builds an :class:`Event` for it only while
  :attr:`Simulator.event_hook` is installed.
* Entries scheduled for the *current* instant while the loop is running
  bypass the heap entirely: they go to a FIFO "ready batch" drained
  before any strictly later heap entry.  Correctness argument: such an
  entry's ``seq`` is larger than that of every queued entry with the
  same timestamp (those were necessarily scheduled earlier), so FIFO
  draining after the heap's equal-time entries *is* ``(time, seq)``
  order.  The batch is flushed back into the heap whenever :meth:`run`
  returns, so introspection between runs sees one queue.
* Cancellation stays lazy (skip at pop time) with the O(1) cancelled
  counter and in-place compaction introduced in PR 1.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..errors import SchedulingError
from .events import Event
from .rng import RngStreams

_heappush = heapq.heappush
_heappop = heapq.heappop

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
        #: Same-timestamp fast lane: entries scheduled at exactly ``now``
        #: while :meth:`run` is draining.  Always empty between runs.
        self._ready: Deque[Entry] = deque()
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
        if self._running and time == self.now:
            # Same-instant batch: no heap churn, FIFO == (time, seq) order
            # because this seq exceeds that of every queued equal-time event.
            self._ready.append((time, seq, event))
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

        The handle-returning relative form, with :meth:`schedule` inlined:
        ``now + delay`` is never in the past once the delay is non-negative.
        """
        if not delay >= 0:  # negative or NaN
            raise SchedulingError(f"negative or NaN delay: {delay}")
        now = self.now
        time = now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, name=name)
        event._on_cancel = self._note_cancelled
        if time == now and self._running:
            self._ready.append((time, seq, event))
        else:
            _heappush(self._queue, (time, seq, event))
        return event

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
        now = self.now
        if not time >= now:  # also true of NaN, which orders nowhere
            raise SchedulingError(
                f"cannot schedule at t={time:.9f} before now={now:.9f}"
            )
        seq = self._seq
        self._seq = seq + 1
        if time == now and self._running:
            self._ready.append((time, seq, None, callback, args, name))
        else:
            _heappush(self._queue, (time, seq, None, callback, args, name))

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
                    entry = ready.popleft()
                    event = entry[2]
                    if event is not None and event.cancelled:
                        self._cancelled -= 1
                        continue
                else:
                    entry = queue[0]
                    event = entry[2]
                    if event is not None and event.cancelled:
                        pop(queue)
                        self._cancelled -= 1
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
            # stop()/max_events can leave immediates behind; park them back
            # in the heap so peek()/pending() and the next run() see a
            # single, totally ordered queue.
            while ready:
                _heappush(queue, ready.popleft())
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
                          if entry[2] is None or not entry[2].cancelled]
        heapq.heapify(self._queue)
        if self._ready:
            live = [entry for entry in self._ready
                    if entry[2] is None or not entry[2].cancelled]
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
        while queue and queue[0][2] is not None and queue[0][2].cancelled:
            _heappop(queue)
            self._cancelled -= 1
        ready = self._ready
        while ready and ready[0][2] is not None and ready[0][2].cancelled:
            ready.popleft()
            self._cancelled -= 1
        if queue and ready:
            return min(queue[0][0], ready[0][0])
        if queue:
            return queue[0][0]
        return ready[0][0] if ready else None

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending()}, "
            f"executed={self.events_executed})"
        )
