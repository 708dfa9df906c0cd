"""Experiment E3 — figure 7: RLA vs TCP through drop-tail gateways.

Five cases of the figure 6 tertiary tree, soft-bottleneck share 100 pkt/s,
27 receivers, one background TCP per receiver, 20-packet FIFO buffers,
phase-effect jitter enabled (§3.1).  The paper runs 3000 s discarding the
first 100 s; duration/warmup here are parameters so benchmarks can run a
scaled-down (but shape-preserving) version.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from ..topology.cases import TREE_CASES, lookup_case
from .paperdata import FIG7_DROPTAIL
from .runner import (
    TreeExperimentResult,
    TreeExperimentSpec,
    run_tree_experiments,
)
from .tables import format_case_table


def run_fig7(
    duration: float = 200.0,
    warmup: float = 20.0,
    seed: int = 1,
    cases: Iterable[int] = (1, 2, 3, 4, 5),
    share_pps: float = 100.0,
    gateway: str = "droptail",
    audited: bool = False,
    **runtime: Any,
) -> Dict[int, TreeExperimentResult]:
    """Run the selected figure 7 cases; returns results keyed by case.

    ``runtime`` is :func:`repro.lifecycle.run_many`'s option set: with
    ``workers`` and/or ``cache`` the case grid fans out through
    :mod:`repro.runtime` (byte-identical results, run in parallel and
    cached on disk), ``checkpoint_at`` also writes a resumable snapshot of
    every case at that interior sim-time, ``outcomes`` collects the run
    records; with none of them the cases run serially in-process.
    ``audited=True`` runs every case under the :mod:`repro.audit`
    conservation auditor.
    """
    specs = {
        case_number: TreeExperimentSpec(
            case=lookup_case(TREE_CASES, case_number),
            gateway=gateway,
            duration=duration,
            warmup=warmup,
            seed=seed,
            share_pps=share_pps,
            audited=audited,
        )
        for case_number in cases
    }
    return run_tree_experiments(specs, **runtime)


def fig7_table(results: Optional[Dict[int, TreeExperimentResult]] = None, **kwargs) -> str:
    """Render the figure 7 table with paper references."""
    if results is None:
        results = run_fig7(**kwargs)
    return format_case_table(
        results, paper=FIG7_DROPTAIL,
        title="Figure 7 - multicast sharing with TCP, drop-tail gateways",
    )
