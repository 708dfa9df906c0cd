"""A bounded ring of recent trace records for post-mortem dumps.

The :class:`FlightRecorder` is the black box of an audited run: every
audit-layer event (enqueue, drop, deliver, consume, engine events) is
appended to a fixed-size ring, and when an invariant trips the last N
records are formatted into the raised :class:`InvariantViolation` so the
events leading up to the failure are visible without re-running.

The ring is written per hop and read only when a check fails, so an entry
is the flat tuple ``(time, category, keys, values)`` (``keys`` a constant
tuple per category); the ``{field: value}`` dict is built on read.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..sim.events import Event

#: A record as readers see it: ``(time, category, {field: value})``.
TraceRecord = Tuple[float, str, Dict[str, Any]]

_EVENT_KEYS = ("name",)
_Entry = Tuple[float, str, Tuple[str, ...], Tuple[Any, ...]]


class FlightRecorder:
    """Fixed-capacity ring of ``(time, category, fields)`` records."""

    #: Records the ring keeps.
    CAPACITY = 256

    def __init__(self) -> None:
        self._ring: Deque[_Entry] = deque(maxlen=self.CAPACITY)
        #: Lifetime count of records seen (the ring only keeps the tail).
        self.recorded = 0

    # ------------------------------------------------------------------
    def note(self, time: float, category: str, keys: Tuple[str, ...],
             values: Tuple[Any, ...]) -> None:
        """Append one record as parallel tuples (the per-hop form: no dict)."""
        self._ring.append((time, category, keys, values))
        self.recorded += 1

    def record(self, time: float, category: str, **fields: Any) -> None:
        """Append one record, evicting the oldest once at capacity."""
        self.note(time, category, tuple(fields), tuple(fields.values()))

    def observe_event(self, event: Event) -> None:
        """Engine ``event_hook`` adapter: record each executed event."""
        # note() inlined: this runs once per engine event
        self._ring.append((event.time, "event", _EVENT_KEYS,
                           (event.name or "?",)))
        self.recorded += 1

    # ------------------------------------------------------------------
    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first."""
        return [(time, category, dict(zip(keys, values)))
                for time, category, keys, values in self._ring]

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def dump(self, last: Optional[int] = None) -> str:
        """Human-readable dump of the most recent ``last`` records.

        Format: one record per line, ``<time>  <category>  k=v k=v ...``,
        preceded by a header giving retained/lifetime counts.  ``last=0``
        shows none; a negative ``last`` is a :class:`ValueError`.
        """
        records = self.records
        if last is not None:
            if last < 0:
                raise ValueError(f"negative record count: {last}")
            records = records[max(len(records) - last, 0):]
        header = (f"{len(records)} record(s) shown, "
                  f"{self.recorded} recorded in total")
        lines = [header]
        for time, category, fields in records:
            rendered = " ".join(f"{key}={value}" for key, value in fields.items())
            lines.append(f"{time:14.6f}  {category:<10s} {rendered}")
        return "\n".join(lines)
