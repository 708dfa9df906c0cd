"""Run registered suites, measure, and emit the ``repro.bench/v1`` JSON.

The measurement protocol, per suite:

* ``repeats`` timed runs (default 1 — the simulations are deterministic,
  so repeats only buy wall-clock noise reduction, and the *minimum* wall
  time is reported as the least-contended sample);
* events come from the suite itself (engine counters), packets from the
  process-wide :mod:`repro.net.packet` uid counter sampled around each
  run — which is why suites run serially in-process, never fanned out to
  worker processes.

The emitted document is self-describing (``schema`` key) and carries an
``environment`` block so a regression report can tell "the code got
slower" apart from "this ran on a different machine / scale".
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, Mapping, Optional

from ..net.packet import uid_counter_state
from .suites import SUITES, resolve

#: Schema tag stamped into every emitted document.
SCHEMA = "repro.bench/v1"

#: Default measured/warmup seconds — deliberately smaller than the pytest
#: benchmarks' 60/20 so a full harness run stays under a minute.
DEFAULT_DURATION = 8.0
DEFAULT_WARMUP = 3.0


def bench_scale(duration: Optional[float] = None,
                warmup: Optional[float] = None) -> Dict[str, float]:
    """The scale knobs: explicit args beat env vars beat defaults.

    Honors the same ``REPRO_BENCH_DURATION`` / ``REPRO_BENCH_WARMUP``
    env vars as ``benchmarks/_scale.py`` (but with smaller defaults).
    """
    if duration is None:
        duration = float(os.environ.get("REPRO_BENCH_DURATION",
                                        DEFAULT_DURATION))
    if warmup is None:
        warmup = float(os.environ.get("REPRO_BENCH_WARMUP", DEFAULT_WARMUP))
    return {"duration": duration, "warmup": warmup}


def _git_revision() -> Optional[str]:
    """Current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def environment_block(scale: Mapping[str, float], repeats: int) -> Dict[str, Any]:
    """Everything needed to judge whether two documents are comparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "duration": scale["duration"],
        "warmup": scale["warmup"],
        "repeats": repeats,
        "git_revision": _git_revision(),
    }


def run_suite(name: str, scale: Mapping[str, float],
              repeats: int = 1) -> Dict[str, Any]:
    """Run one suite ``repeats`` times; report min wall time and rates."""
    suite = SUITES[name]
    best_wall = None
    events = packets = 0
    for _ in range(max(repeats, 1)):
        uid_before = uid_counter_state()
        t0 = time.perf_counter()
        events = suite.run(scale)
        wall = time.perf_counter() - t0
        packets = uid_counter_state() - uid_before
        if best_wall is None or wall < best_wall:
            best_wall = wall
    assert best_wall is not None
    return {
        "description": suite.description,
        "mirrors": suite.mirrors,
        "wall_s": round(best_wall, 6),
        "events": events,
        "packets": packets,
        "events_per_s": round(events / best_wall, 1) if best_wall else 0.0,
        "packets_per_s": round(packets / best_wall, 1) if best_wall else 0.0,
    }


def run_benchmarks(
    names: Optional[Iterable[str]] = None,
    scale: Optional[Mapping[str, float]] = None,
    repeats: int = 1,
    label: Optional[str] = None,
    progress: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run the selected suites and return the full ``repro.bench/v1`` doc.

    ``progress`` is an optional ``print``-like callable for per-suite
    status lines (the CLI passes one; library callers usually don't).
    """
    selected = resolve(names) if names is not None else dict(SUITES)
    if scale is None:
        scale = bench_scale()
    suites: Dict[str, Any] = {}
    for name in selected:
        if progress is not None:
            progress(f"[repro.bench] running {name} ...")
        suites[name] = run_suite(name, scale, repeats=repeats)
        if progress is not None:
            row = suites[name]
            progress(f"[repro.bench]   {name}: {row['wall_s']:.2f}s wall, "
                     f"{row['events_per_s']:,.0f} events/s, "
                     f"{row['packets_per_s']:,.0f} packets/s")
    return {
        "schema": SCHEMA,
        "label": label,
        "created_unix": int(time.time()),
        "environment": environment_block(scale, repeats),
        "suites": suites,
    }


def write_report(doc: Dict[str, Any], path: str) -> None:
    """Write a benchmark document as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Load a benchmark document, validating its schema tag."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r} is not {SCHEMA!r} — "
            "regenerate with `python -m repro.bench run`"
        )
    return doc


# Re-exported for the CLI's default output name.
def default_output_name(label: str) -> str:
    """Canonical file name for a labelled document (``BENCH_<label>.json``)."""
    return f"BENCH_{label}.json"


if sys.version_info < (3, 8):  # pragma: no cover - project floor is 3.8
    raise RuntimeError("repro.bench needs Python >= 3.8")
