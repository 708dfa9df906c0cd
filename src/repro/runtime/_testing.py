"""Entrypoints used by the runtime's own test suite.

They live in the package (not under ``tests/``) because worker processes
resolve entrypoints by import path, and the ``tests`` tree is not an
importable package.  Each one is a tiny, dependency-free stand-in for a
simulation run with a controllable failure mode.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict


def echo(params: Dict[str, Any]) -> Dict[str, Any]:
    """Return the params, tagged with this process's pid."""
    return {"params": dict(params), "pid": os.getpid(),
            "sim_stats": {"events": int(params.get("events", 7)),
                          "drops": 1, "peak_queue_depth": 2}}


def boom(params: Dict[str, Any]) -> None:
    """Always fail — exercises exhausted-retries reporting."""
    raise RuntimeError(f"boom: {params.get('why', 'deliberate failure')}")


def misconfigured(params: Dict[str, Any]) -> None:
    """Refuse the spec, counting attempts — exercises the no-retry rule.

    Appends a line to ``params['log']`` on every attempt (in any
    process), then raises the :class:`~repro.errors.ReproError` a run
    raises for a spec that can never succeed.
    """
    from ..errors import ConfigurationError

    with open(params["log"], "a", encoding="utf-8") as handle:
        handle.write("attempted\n")
    raise ConfigurationError("misconfigured: no attempt can succeed")


def flaky(params: Dict[str, Any]) -> str:
    """Fail until a marker file exists, then succeed — exercises retry.

    The first attempt creates ``params['marker']`` and raises; any later
    attempt (in any process) sees the marker and returns normally.
    """
    marker = params["marker"]
    if os.path.exists(marker):
        return "recovered"
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write("attempted")
    raise RuntimeError("flaky: first attempt fails")


def snooze(params: Dict[str, Any]) -> Dict[str, Any]:
    """Sleep ``params['seconds']`` then return — a stand-in for a run
    whose wall time is not CPU-bound, used to measure executor overlap
    independently of the host's core count."""
    seconds = float(params.get("seconds", 0.5))
    time.sleep(seconds)
    return {"slept": seconds, "pid": os.getpid()}


def die(params: Dict[str, Any]) -> None:
    """End the worker process at once, with no exception to report —
    exercises the broken-pool path."""
    os._exit(3)
