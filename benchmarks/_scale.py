"""Horizon of the reproduction checks (importable by the bench modules).

Every ``bench_*.py`` file reproduces one model figure, ablation, sweep or
extension of the paper at a scaled-down horizon and asserts its shape;
none of them times anything (speed is measured by
``benchmarks/rlabench/``).  The §5 tables are ``repro-rla paper``.  The
horizon is controlled by two environment variables so a higher-fidelity
run is one command away:

* ``REPRO_BENCH_DURATION`` — measured seconds after warmup (default 60;
  the paper used 2900),
* ``REPRO_BENCH_WARMUP`` — discarded warmup seconds (default 20; the
  paper used 100).
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
