"""Horizon of the reproduction checks (importable by the bench modules).

See benchmarks/conftest.py for how it relates to the paper's runs.
"""

from __future__ import annotations

import os

DEFAULT_DURATION = 60.0
DEFAULT_WARMUP = 20.0


def bench_duration() -> float:
    """Measured window length of the simulated checks (seconds)."""
    return float(os.environ.get("REPRO_BENCH_DURATION", DEFAULT_DURATION))


def bench_warmup() -> float:
    """Warmup discarded before measuring (seconds)."""
    return float(os.environ.get("REPRO_BENCH_WARMUP", DEFAULT_WARMUP))
