"""Text-table rendering of experiment results, in the paper's layout.

:func:`format_case_table` renders the figure 7/9/10 layout — cases as
columns; RLA / WTCP / BTCP blocks as rows — with the paper's reference
numbers interleaved when provided.  :func:`format_signals_table` renders
the figure 8 layout (per-branch congestion-signal statistics), and
:func:`format_sessions` the §5.2 per-session lines.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Optional, Sequence

from .runner import TreeExperimentResult


def _fmt(value, digits: int = 1) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


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


_RLA_ROWS = (
    ("thrput (pkt/s)", "throughput_pps", 1),
    ("cwnd", "mean_cwnd", 1),
    ("RTT (s)", "mean_rtt", 3),
    ("# cong signals", "congestion_signals", 0),
    ("# wnd cut", "window_cuts", 0),
    ("# forced cut", "forced_cuts", 0),
)

_TCP_ROWS = (
    ("thrput (pkt/s)", "throughput_pps", 1),
    ("cwnd", "mean_cwnd", 1),
    ("RTT (s)", "mean_rtt", 3),
    ("# wnd cut", "window_cuts", 0),
)

_PAPER_KEYS = {
    "throughput_pps": "thrput",
    "mean_cwnd": "cwnd",
    "mean_rtt": "rtt",
    "congestion_signals": "cong_signals",
    "window_cuts": "wnd_cut",
    "forced_cuts": "forced_cut",
}


def format_case_table(
    results: Dict[int, TreeExperimentResult],
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

    def cell(case: int, block: str, key: str, digits: int) -> str:
        result = results[case]
        if block == "rla":
            measured = result.rla[0][key]
        elif block == "wtcp":
            measured = result.wtcp.get(key)
        else:
            measured = result.btcp.get(key)
        text = _fmt(measured, digits)
        if paper and case in paper:
            ref = paper[case][block].get(_PAPER_KEYS.get(key, key))
            if ref is not None:
                text += f" [{_fmt(ref, digits)}]"
        return text

    for label, key, digits in _RLA_ROWS:
        rows.append(["RLA", label] + [cell(c, "rla", key, digits) for c in cases])
    for label, key, digits in _TCP_ROWS:
        rows.append(["WTCP", label] + [cell(c, "wtcp", key, digits) for c in cases])
    for label, key, digits in _TCP_ROWS:
        rows.append(["BTCP", label] + [cell(c, "btcp", key, digits) for c in cases])

    grid = render_grid(header, rows)
    note = "measured [paper]" if paper else "measured"
    prefix = f"{title}\n" if title else ""
    return f"{prefix}{grid}\n({note})"


def format_sessions(
    results: Dict[int, TreeExperimentResult],
    paper: Dict[int, dict],
    title: str = "",
) -> str:
    """Render §5.2: per metric, every session's value and the paper's.

    Two self-labelled lines per case, so ``title`` is not printed.
    """
    lines = []
    for case in sorted(results):
        for metric in ("throughput_pps", "mean_cwnd"):
            measured = tuple(round(r[metric], 1) for r in results[case].rla)
            lines.append(f"{metric}: measured {measured}, "
                         f"paper {paper[case][metric]}")
    return "\n".join(lines)


def _tier_stats(values: Sequence[int]):
    if not values:
        return None, None, None
    return max(values), min(values), mean(values)


def format_signals_table(
    results: Dict[int, TreeExperimentResult],
    paper: Optional[Dict[int, dict]] = None,
    title: str = "",
) -> str:
    """Render the figure 8 table: per-branch congestion-signal statistics.

    Per case and congestion tier: worst/best/average RLA branch signal
    counts and worst/best/average TCP window cuts.
    """
    header = [
        "case", "links",
        "RLA worst", "RLA best", "RLA avg",
        "TCP worst", "TCP best", "TCP avg",
    ]
    rows: List[List[str]] = []
    for case in sorted(results):
        result = results[case]
        tiers = [("more", "more congested"), ("less", "less congested")]
        if not result.tiers.get("less"):
            tiers = [("more", "all links")]
        for tier_key, tier_label in tiers:
            rla_w, rla_b, rla_a = _tier_stats(result.rla_signals_by_tier(tier_key))
            tcp_w, tcp_b, tcp_a = _tier_stats(result.tcp_cuts_by_tier(tier_key))
            row = [
                str(case), tier_label,
                _fmt(rla_w, 0), _fmt(rla_b, 0), _fmt(rla_a, 0),
                _fmt(tcp_w, 0), _fmt(tcp_b, 0), _fmt(tcp_a, 0),
            ]
            if paper and case in paper:
                ref_tier = "all" if tier_label == "all links" else tier_key
                ref = paper[case].get(ref_tier)
                if ref:
                    row[2] += f" [{ref['rla'][0]}]"
                    row[3] += f" [{ref['rla'][1]}]"
                    row[4] += f" [{ref['rla'][2]}]"
                    row[5] += f" [{ref['tcp'][0]}]"
                    row[6] += f" [{ref['tcp'][1]}]"
                    row[7] += f" [{ref['tcp'][2]}]"
            rows.append(row)
    grid = render_grid(header, rows)
    note = "measured [paper]" if paper else "measured"
    prefix = f"{title}\n" if title else ""
    return f"{prefix}{grid}\n({note})"
