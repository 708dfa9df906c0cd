"""Experiments E3-E7 — figures 7-10 and §5.2: one tree experiment, five rows.

Every figure runs the §5 experiment of :mod:`repro.experiments.runner`
on the figure 6 tertiary tree: 27 leaf receivers, one background TCP per
leaf, soft-bottleneck share 100 pkt/s, 20-packet buffers.  A
:class:`Figure` row names only what differs:

* figure 7 — the five cases on drop-tail gateways, with the §3.1
  phase-effect jitter;
* figure 8 — figure 7's runs rendered as per-branch congestion-signal
  counts beside the competing TCPs' window cuts (§3.1, §5.1);
* figure 9 — figure 7 on RED gateways (min 5 / max 15 / buffer 20) and
  no jitter: RED's randomized drops remove phase effects themselves;
* figure 10 — the level-3 gateways G31..G39 join as receivers (36 in
  all, ~10x closer than the leaves), so the sender scales its listening
  probability by ``(srtt_i / srtt_max)^2`` (§5.3);
* multisession (§5.2) — case 3 with *two* RLA sessions from the same
  sender to the same receivers; the paper reports them sharing almost
  equally (65.1 / 65.9 pkt/s, mean windows 19.9 / 20.1).

The paper runs 3000 s discarding the first 100 s; duration and warmup
are parameters so benchmarks can run a scaled-down (but
shape-preserving) version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional

from ..lifecycle import run_many
from ..topology.cases import RTT_CASES, TREE_CASES, TreeCase, lookup_case
from .paperdata import (
    FIG7_DROPTAIL,
    FIG8_SIGNALS,
    FIG9_RED,
    FIG10_RTT,
    MULTISESSION,
)
from .runner import TreeExperimentResult, TreeExperimentSpec
from .tables import format_case_table, format_sessions, format_signals_table


@dataclass(frozen=True)
class Figure:
    """One §5 table: which cases, on which gateway, printed how (its
    subcommand's help line is :mod:`repro.cli`'s)."""

    title: str
    #: the case registry; its ids are the default ``--cases``
    cases: Dict[int, TreeCase]
    #: the published numbers printed beside ours
    paper: Dict[int, dict]
    render: Callable[..., str]
    gateway: str = "droptail"
    #: RLA sessions sharing the tree (§5.2 runs two)
    rla_sessions: int = 1


FIGURES: Dict[str, Figure] = {
    "fig7": Figure(
        "Figure 7 - multicast sharing with TCP, drop-tail gateways",
        TREE_CASES, FIG7_DROPTAIL, format_case_table),
    "fig8": Figure(
        "Figure 8 - congestion signals per branch (drop-tail runs)",
        TREE_CASES, FIG8_SIGNALS, format_signals_table),
    "fig9": Figure(
        "Figure 9 - multicast sharing with TCP, RED gateways",
        TREE_CASES, FIG9_RED, format_case_table, gateway="red"),
    "fig10": Figure(
        "Figure 10 - different round-trip times (generalized RLA)",
        RTT_CASES, FIG10_RTT, format_case_table),
    "multisession": Figure(
        "Section 5.2 - two overlapping multicast sessions",
        {3: TREE_CASES[3]}, {3: MULTISESSION}, format_sessions,
        rla_sessions=2),
}


def run_figure(
    name: str,
    duration: float = 200.0,
    warmup: float = 20.0,
    seed: int = 1,
    cases: Optional[Iterable[int]] = None,
    audited: bool = False,
    **runtime: Any,
) -> Dict[int, TreeExperimentResult]:
    """Run the selected cases of figure ``name`` (default: all of them);
    returns results keyed by case number.

    ``runtime`` is :func:`repro.lifecycle.run_many`'s option set: with
    ``workers`` and/or ``cache`` the case grid fans out through
    :mod:`repro.runtime` (byte-identical results, run in parallel and
    cached on disk), ``checkpoint_at`` also writes a resumable snapshot of
    every case at that interior sim-time, ``outcomes`` collects the run
    records; with none of them the cases run serially in-process.
    ``audited=True`` runs every case under the :mod:`repro.audit`
    conservation auditor.
    """
    figure = FIGURES[name]
    specs = {
        number: TreeExperimentSpec(
            case=lookup_case(figure.cases, number),
            gateway=figure.gateway,
            duration=duration,
            warmup=warmup,
            seed=seed,
            rla_sessions=figure.rla_sessions,
            audited=audited,
        )
        for number in (figure.cases if cases is None else cases)
    }
    return dict(zip(specs, run_many(specs.values(), **runtime)))


def figure_table(name: str, results: Dict[int, TreeExperimentResult]) -> str:
    """Render figure ``name``'s table with the paper's numbers beside ours."""
    figure = FIGURES[name]
    return figure.render(results, paper=figure.paper, title=figure.title)
