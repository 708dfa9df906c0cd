"""JSONL export of audited-run observability data.

One line per row, each a self-describing JSON object with a ``type`` field,
so downstream tooling (pandas, jq, plotting scripts) can filter without a
schema file:

* ``meta`` — run identification (caller-provided dict, written first);
* ``trace`` — one :class:`~repro.audit.recorder.FlightRecorder` record
  (category ``enqueue`` carries ``depth``, ``drop`` carries ``reason``);
* ``queue_summary`` — per-link occupancy/loss summary from a
  :class:`~repro.net.monitor.QueueMonitor`;
* ``flow_conservation`` / ``link_conservation`` — the auditor's ledgers.

Keys are sorted and floats written verbatim, so exports of a seeded run
are byte-stable across processes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, IO, Mapping, Optional, TYPE_CHECKING, Union

from ..net.monitor import QueueMonitor
from .recorder import FlightRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .conservation import ConservationAuditor


class JsonlExporter:
    """Writes observability rows to a text stream, one JSON object per line."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream
        self.rows_written = 0

    def write_row(self, row: Mapping[str, Any]) -> None:
        self._stream.write(json.dumps(row, sort_keys=True))
        self._stream.write("\n")
        self.rows_written += 1

    # ------------------------------------------------------------------
    def export_meta(self, meta: Mapping[str, Any]) -> None:
        self.write_row({"type": "meta", **meta})

    def export_trace(self, recorder: FlightRecorder) -> None:
        for time, category, fields in recorder.records:
            self.write_row(
                {"type": "trace", "t": time, "category": category, **fields}
            )

    def export_queue_monitor(self, link: str, monitor: QueueMonitor) -> None:
        self.write_row(
            {"type": "queue_summary", "link": link,
             "mean_depth": monitor.mean_depth(),
             "max_depth": monitor.max_depth,
             "total_drops": monitor.total_drops,
             "loss_rate": monitor.loss_rate()}
        )

    def export_conservation(self, auditor: "ConservationAuditor") -> None:
        for flow, ledger in auditor.flow_summary().items():
            self.write_row({"type": "flow_conservation", "flow": flow, **ledger})
        for link, ledger in auditor.link_summary().items():
            self.write_row({"type": "link_conservation", "link": link, **ledger})


def export_run(
    path: Union[str, Path],
    *,
    meta: Optional[Mapping[str, Any]] = None,
    recorder: Optional[FlightRecorder] = None,
    monitors: Optional[Mapping[str, QueueMonitor]] = None,
    auditor: Optional["ConservationAuditor"] = None,
) -> int:
    """Write everything available about a run to ``path``; return row count."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as stream:
        exporter = JsonlExporter(stream)
        if meta is not None:
            exporter.export_meta(meta)
        if recorder is not None:
            exporter.export_trace(recorder)
        if monitors is not None:
            for link in sorted(monitors):
                exporter.export_queue_monitor(link, monitors[link])
        if auditor is not None:
            exporter.export_conservation(auditor)
        return exporter.rows_written


def load_rows(
    path: Union[str, Path], type_filter: Optional[str] = None
) -> list:
    """Read an export back; optionally keep only rows of one ``type``."""
    rows: list = []
    with Path(path).open("r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            row: Dict[str, Any] = json.loads(line)
            if type_filter is None or row.get("type") == type_filter:
                rows.append(row)
    return rows
