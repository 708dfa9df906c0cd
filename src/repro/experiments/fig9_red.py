"""Experiment E5 — figure 9: RLA vs TCP through RED gateways.

Identical setup to figure 7 except the gateways are RED (min 5 / max 15 /
buffer 20) and no phase-effect jitter is used — RED's randomized drops
eliminate phase effects by themselves (§3.1, §5.1).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .fig7_droptail import run_fig7
from .paperdata import FIG9_RED
from .runner import TreeExperimentResult
from .tables import format_case_table


def run_fig9(**kwargs: Any) -> Dict[int, TreeExperimentResult]:
    """Run the selected figure 9 cases: figure 7's runs on RED gateways."""
    return run_fig7(gateway="red", **kwargs)


def fig9_table(results: Optional[Dict[int, TreeExperimentResult]] = None, **kwargs) -> str:
    """Render the figure 9 table with paper references."""
    if results is None:
        results = run_fig9(**kwargs)
    return format_case_table(
        results, paper=FIG9_RED,
        title="Figure 9 - multicast sharing with TCP, RED gateways",
    )
