"""Opt-in simulation-wide invariant auditing and structured observability.

The audit layer sits beside the simulator rather than inside it: components
in :mod:`repro.net`, :mod:`repro.tcp` and :mod:`repro.rla` expose cheap
observation hooks, and this package assembles them into

* a :class:`ConservationAuditor` that follows every packet from creation to
  its terminal fate and enforces end-of-run conservation per flow and per
  link,
* an :class:`InvariantMonitor` of cheap per-event sanity checks (window
  bounds, non-negative pipe, sequence ordering, reach counts, gateway
  bookkeeping),
* a :class:`FlightRecorder` ring buffer whose recent history is attached to
  every raised :class:`InvariantViolation`,
* a JSONL exporter (:func:`export_run`) of the recorder's ring, queue
  summaries and the conservation ledgers.

:func:`arm` wires the first three onto a built network in one call.
Un-audited runs pay only a ``None``/empty-list check at each hook site.
"""

from .conservation import ConservationAuditor, arm
from .export import JsonlExporter, export_run, load_rows
from .invariants import InvariantMonitor
from .recorder import FlightRecorder
from .violation import InvariantViolation

__all__ = [
    "ConservationAuditor",
    "FlightRecorder",
    "InvariantMonitor",
    "InvariantViolation",
    "JsonlExporter",
    "arm",
    "export_run",
    "load_rows",
]
