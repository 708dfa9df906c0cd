"""Experiment E6 — figure 10: different round-trip times, generalized RLA.

The figure 6 tree with the level-3 gateways G31..G39 joining as receivers
(36 total).  Leaf receivers sit behind 100 ms level-4 links; the G3x
receivers are ~10x closer, so the sender's listening probability is scaled
by ``(srtt_i / srtt_max)^2`` (§5.3).  Two cases: bottlenecks at level 2 or
level 3.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from ..topology.cases import RTT_CASES, lookup_case
from .paperdata import FIG10_RTT
from .runner import (
    TreeExperimentResult,
    TreeExperimentSpec,
    run_tree_experiments,
)
from .tables import format_case_table


def run_fig10(
    duration: float = 200.0,
    warmup: float = 20.0,
    seed: int = 1,
    cases: Iterable[int] = (1, 2),
    share_pps: float = 100.0,
    gateway: str = "droptail",
    audited: bool = False,
    **runtime: Any,
) -> Dict[int, TreeExperimentResult]:
    """Run the figure 10 cases (36 receivers, RTT-scaled listening).

    ``runtime`` is passed through as in
    :func:`~repro.experiments.fig7_droptail.run_fig7`.
    """
    specs = {
        case_number: TreeExperimentSpec(
            case=lookup_case(RTT_CASES, case_number),
            gateway=gateway,
            duration=duration,
            warmup=warmup,
            seed=seed,
            share_pps=share_pps,
            generalized=True,
            audited=audited,
        )
        for case_number in cases
    }
    return run_tree_experiments(specs, **runtime)


def fig10_table(results: Optional[Dict[int, TreeExperimentResult]] = None, **kwargs) -> str:
    """Render the figure 10 table with paper references."""
    if results is None:
        results = run_fig10(**kwargs)
    return format_case_table(
        results, paper=FIG10_RTT,
        title="Figure 10 - different round-trip times (generalized RLA)",
    )
