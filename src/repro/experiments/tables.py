"""Text-table rendering of experiment results, in the paper's layout.

:func:`format_case_table` renders the figure 7/9/10 layout — cases as
columns; RLA / WTCP / BTCP blocks as rows — with the paper's reference
numbers interleaved when provided.  :func:`format_signals_table` renders
the figure 8 layout (per-branch congestion-signal statistics), and
:func:`format_sessions` the §5.2 per-session lines.  Each takes, per
case, a list of results, one per seed; a cell over more than one seed
reads ``mean±h``, ``h`` the half-width of its 95 % confidence interval.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from .runner import TreeExperimentResult

#: per case, one result per seed
Runs = Dict[int, List["TreeExperimentResult"]]

#: Two-sided 95 % quantile of Student's t at 4 degrees of freedom: the
#: CI of a mean over ``repro.experiments.figures.SEEDS`` = 5 seeds.
T95_4DF = 2.7764451051977987


def _fmt(value, digits: int = 1) -> str:
    if isinstance(value, list):  # one value per seed
        if len(value) > 1:
            from statistics import mean, stdev

            half = T95_4DF * stdev(value) / len(value) ** 0.5
            return f"{mean(value):.{digits}f}±{half:.{digits}f}"
        value = value[0]
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _framed(title: str, grid: str, paper: Optional[Dict[int, dict]]) -> str:
    """``grid`` under ``title`` (if any) over its legend."""
    note = "measured [paper]" if paper else "measured"
    return f"{title}\n{grid}\n({note})" if title else f"{grid}\n({note})"


def render_grid(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Align a list of rows under a header into a monospace grid."""
    table = [list(header)] + [list(row) for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    lines = []
    for index, row in enumerate(table):
        line = "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row))
        lines.append(line.rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


#: (label, result key, paper key, digits) of each row of a block
_RLA_ROWS = (
    ("thrput (pkt/s)", "throughput_pps", "thrput", 1),
    ("cwnd", "mean_cwnd", "cwnd", 1),
    ("RTT (s)", "mean_rtt", "rtt", 3),
    ("# cong signals", "congestion_signals", "cong_signals", 0),
    ("# wnd cut", "window_cuts", "wnd_cut", 0),
    ("# forced cut", "forced_cuts", "forced_cut", 0),
)
#: a TCP has no congestion-signal or forced-cut row
_TCP_ROWS = _RLA_ROWS[:3] + _RLA_ROWS[4:5]


def format_case_table(
    results: Runs,
    paper: Optional[Dict[int, dict]] = None,
    title: str = "",
) -> str:
    """Render the figure 7/9/10 table (cases as columns).

    When ``paper`` is given (a FIG7/FIG9/FIG10 dict from
    :mod:`repro.experiments.paperdata`), each measured value is followed
    by the paper's number in brackets.
    """
    cases = sorted(results)
    header = ["section", "metric"] + [f"case {c}" for c in cases]
    rows: List[List[str]] = []

    def cell(case: int, block: str, key: str, ref_key: str,
             digits: int) -> str:
        text = _fmt([(run.rla[0] if block == "rla" else getattr(run, block)
                      ).get(key) for run in results[case]], digits)
        if paper and case in paper:
            ref = paper[case][block].get(ref_key)
            if ref is not None:
                text += f" [{_fmt(ref, digits)}]"
        return text

    for block, rows_of in (("rla", _RLA_ROWS), ("wtcp", _TCP_ROWS),
                           ("btcp", _TCP_ROWS)):
        rows += [[block.upper(), label] + [cell(c, block, *keys)
                                           for c in cases]
                 for label, *keys in rows_of]

    return _framed(title, render_grid(header, rows), paper)


def format_sessions(
    results: Runs,
    paper: Dict[int, dict],
    title: str = "",
) -> str:
    """Render §5.2: per metric, every session's value and the paper's.

    Two self-labelled lines per case, so ``title`` is not printed.
    """
    lines = []
    for case, runs in sorted(results.items()):
        for metric in ("throughput_pps", "mean_cwnd"):
            measured = ", ".join(_fmt([run.rla[i][metric] for run in runs])
                                 for i in range(len(runs[0].rla)))
            lines.append(f"{metric}: measured ({measured}), "
                         f"paper {paper[case][metric]}")
    return "\n".join(lines)


def _tier_stats(values: Sequence[int]):
    if not values:
        return None, None, None
    from statistics import mean

    return max(values), min(values), mean(values)


def format_signals_table(
    results: Runs,
    paper: Optional[Dict[int, dict]] = None,
    title: str = "",
) -> str:
    """Render the figure 8 table: per-branch congestion-signal statistics.

    Per case and congestion tier: worst/best/average RLA branch signal
    counts and worst/best/average TCP window cuts.
    """
    header = ["case", "links"] + [f"{who} {stat}" for who in ("RLA", "TCP")
                                  for stat in ("worst", "best", "avg")]
    rows: List[List[str]] = []
    for case, runs in sorted(results.items()):
        tiers = [("more", "more congested"), ("less", "less congested")]
        if not runs[0].tiers.get("less"):
            tiers = [("more", "all links")]
        for tier_key, tier_label in tiers:
            # RLA signals, then TCP cuts: worst, best and average, each
            # a list over seeds
            row = [str(case), tier_label] + [
                _fmt(list(over_seeds), 0)
                for of in ("rla_signals_by_tier", "tcp_cuts_by_tier")
                for over_seeds in zip(*(_tier_stats(getattr(run, of)(tier_key))
                                        for run in runs))]
            if paper and case in paper:
                ref_tier = "all" if tier_label == "all links" else tier_key
                ref = paper[case].get(ref_tier)
                if ref:
                    for col, value in enumerate(ref["rla"] + ref["tcp"], 2):
                        row[col] += f" [{value}]"
            rows.append(row)
    return _framed(title, render_grid(header, rows), paper)
