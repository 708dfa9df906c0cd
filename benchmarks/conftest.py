"""Shared infrastructure for the paper-reproduction checks.

Every ``bench_*.py`` file reproduces one figure, table or ablation of the
paper at a scaled-down horizon and asserts its shape; none of them times
anything (speed is measured by ``benchmarks/rlabench/``).  The horizon is
controlled by two environment variables so a higher-fidelity run is one
command away:

* ``REPRO_BENCH_DURATION`` — measured seconds after warmup (default 60;
  the paper used 2900),
* ``REPRO_BENCH_WARMUP`` — discarded warmup seconds (default 20; the
  paper used 100).

The checks print the paper's numbers next to ours (the ``[paper]``
bracket) and assert the *shape* results: who wins, the theorem bounds,
and the case ordering — not absolute throughput equality.

Expensive simulation results are cached per session so figure 8 (which
the paper derives from the same runs as figure 7) does not re-simulate.
"""

from __future__ import annotations

from typing import Dict

import pytest


@pytest.fixture(scope="session")
def run_cache() -> Dict[str, object]:
    """Session-wide cache of simulation results shared across checks."""
    return {}
