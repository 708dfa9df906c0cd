"""Experiment E7 — §5.2: two overlapping multicast sessions.

Case-3 topology (27 congested leaf links) with *two* RLA sessions from the
same sender to the same receivers plus the background TCPs.  The paper
reports the sessions sharing almost equally: throughputs 65.1 / 65.9
pkt/s and mean windows 19.9 / 20.1 at full scale.
"""

from __future__ import annotations

from typing import Any, Dict

from ..topology.cases import TREE_CASES
from .paperdata import MULTISESSION
from .runner import TreeExperimentResult, TreeExperimentSpec, run_tree_experiments


def run_multisession(
    duration: float = 200.0,
    warmup: float = 20.0,
    seed: int = 1,
    case_number: int = 3,
    gateway: str = "droptail",
    audited: bool = False,
    **runtime: Any,
) -> TreeExperimentResult:
    """Run the two-session experiment; ``result.rla`` has two reports.

    ``runtime`` is :func:`repro.lifecycle.run_many`'s option set.
    """
    spec = TreeExperimentSpec(
        case=TREE_CASES[case_number],
        gateway=gateway,
        duration=duration,
        warmup=warmup,
        seed=seed,
        rla_sessions=2,
        audited=audited,
    )
    return run_tree_experiments({case_number: spec}, **runtime)[case_number]


def summarize(result: TreeExperimentResult) -> Dict[str, tuple]:
    """Measured vs paper numbers for the two sessions."""
    return {
        "throughput_pps": (
            tuple(round(r["throughput_pps"], 1) for r in result.rla),
            MULTISESSION["throughput_pps"],
        ),
        "mean_cwnd": (
            tuple(round(r["mean_cwnd"], 1) for r in result.rla),
            MULTISESSION["mean_cwnd"],
        ),
    }
