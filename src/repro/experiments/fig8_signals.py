"""Experiment E4 — figure 8: congestion-signal statistics per branch.

Uses the same runs as figure 7 (drop-tail).  For each case it reports the
worst / best / average number of congestion signals the RLA sender saw
from receivers on equally-congested branches, next to the worst / best /
average window-cut counts of the competing TCP connections — the paper's
evidence that both sender types see the *same congestion frequency*
(§3.1, §5.1).
"""

from __future__ import annotations

from typing import Dict, Optional

from .fig7_droptail import run_fig7
from .paperdata import FIG8_SIGNALS
from .runner import TreeExperimentResult
from .tables import format_signals_table


def run_fig8(**kwargs) -> Dict[int, TreeExperimentResult]:
    """Run the drop-tail cases that figure 8's statistics come from."""
    return run_fig7(**kwargs)


def fig8_table(results: Optional[Dict[int, TreeExperimentResult]] = None, **kwargs) -> str:
    """Render the figure 8 table with paper references.

    Pass the results of :func:`run_fig7` to avoid re-running the
    simulations (the paper derives figures 7 and 8 from the same runs).
    """
    if results is None:
        results = run_fig8(**kwargs)
    return format_signals_table(
        results, paper=FIG8_SIGNALS,
        title="Figure 8 - congestion signals per branch (drop-tail runs)",
    )
