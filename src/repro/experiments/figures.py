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
are parameters, so a scaled-down (shape-preserving) run is one option
away.  :func:`run_paper` runs and judges rows over :data:`SEEDS` seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
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
from .tables import (Runs, format_case_table, format_sessions,
                     format_signals_table)

#: Seeds per cell of :func:`run_paper`: its CIs are Student t at 4 df.
SEEDS = 5
#: Measured seconds from which a failed check fails ``repro-rla paper``;
#: below it start-up transients dominate, and the checks print ungated.
GATED_FROM = 40.0

#: a check's line and whether it passed
Check = Tuple[str, bool]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _ratios(runs: Runs) -> Dict[int, float]:
    """Each case's mean RLA/WTCP ratio over seeds (NaN: a run had none)."""
    return {case: _mean([v.ratio if v else float("nan")
                         for v in (run.verdict() for run in rs)])
            for case, rs in runs.items()}


def _held(runs: List[TreeExperimentResult]) -> int:
    return sum(bool(v and v.fair) for v in (run.verdict() for run in runs))


def _theorem(runs: Runs, name: str) -> Check:
    held, total = (sum(map(f, runs.values())) for f in (_held, len))
    return (f"{name} holds in every case and seed ({held}/{total})",
            held == total)


def _largest(ratio: Dict[int, float]) -> Check:
    return (f"case 5 has the largest RLA/WTCP ratio ({ratio[5]:.2f})",
            ratio[5] == max(ratio.values()))


def _fig7_checks(runs: Runs) -> List[Check]:
    ratio = _ratios(runs)
    cwnd1, cwnd3 = (_mean([run.rla[0]["mean_cwnd"] for run in runs[case]])
                    for case in (1, 3))
    return [_theorem(runs, "Theorem II"), _largest(ratio),
            (f"case 5 ratio > 1.5 ({ratio[5]:.2f})", ratio[5] > 1.5),
            (f"case 1 RLA cwnd > case 3's, the Lemma ({cwnd1:.1f} vs "
             f"{cwnd3:.1f})", cwnd1 > cwnd3),
            ("forced cuts <= max(2, 0.1 x window cuts) in every run",
             all(rla["forced_cuts"] <= max(2, 0.1 * rla["window_cuts"])
                 for rs in runs.values() for rla in (r.rla[0] for r in rs)))]


def _per_branch(runs: List[TreeExperimentResult], of: str, tier: str
                ) -> float:
    """Mean over seeds of one tier's mean per-branch count of ``of``."""
    return _mean([_mean(getattr(run, of)(tier) or [0]) for run in runs])


def _fig8_checks(runs: Runs) -> List[Check]:
    checks = []
    for case in (2, 3):
        rla, tcp = (_per_branch(runs[case], of, "more") for of in
                    ("rla_signals_by_tier", "tcp_cuts_by_tier"))
        ratio = rla / tcp if tcp > 0 else float("nan")
        checks.append((f"case {case} RLA signals / TCP cuts per branch in "
                       f"(0.4, 2.5) ({ratio:.2f})", 0.4 < ratio < 2.5))
    more, less = (_per_branch(runs[5], "rla_signals_by_tier", tier)
                  for tier in ("more", "less"))
    return checks + [(f"case 5 congested-tier RLA signals > 2 x the "
                      f"others' ({more:.0f} vs {less:.0f})", more > 2 * less)]


def _fig9_checks(runs: Runs) -> List[Check]:
    ratio = _ratios(runs)
    return [_theorem(runs, "Theorem I"), _largest(ratio),
            (f"case 1 ratio in (0.5, 3.0) ({ratio[1]:.2f})",
             0.5 < ratio[1] < 3.0)]


def _fig10_checks(runs: Runs) -> List[Check]:
    every = [run for rs in runs.values() for run in rs]
    wtcp = min(run.wtcp["throughput_pps"] for run in every)
    return [(f"no WTCP shut out: > 5 pkt/s in every run (min {wtcp:.1f})",
             wtcp > 5.0), _theorem(runs, "Theorem II"),
            ("every run is the generalized RLA",
             all(run.spec.generalized for run in every))]


def _multisession_checks(runs: Runs) -> List[Check]:
    rates, windows = ([_mean([run.rla[i][key] for run in runs[3]])
                       for i in range(len(runs[3][0].rla))]
                      for key in ("throughput_pps", "mean_cwnd"))
    starved = min(r["throughput_pps"] for run in runs[3] for r in run.rla)
    rate, window = min(rates) / max(rates), min(windows) / max(windows)
    return [(f"no session starved (min {starved:.1f} pkt/s)", starved > 0),
            (f"session throughputs within 0.55x ({rate:.2f})", rate > 0.55),
            (f"session windows within 0.6x ({window:.2f})", window > 0.6),
            (f"the sessions together < 220 pkt/s ({sum(rates):.1f})",
             sum(rates) < 220)]


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
    #: the shape checks :func:`run_paper` prints, over every seed
    checks: Callable[[Runs], List[Check]]
    gateway: str = "droptail"
    #: RLA sessions sharing the tree (§5.2 runs two)
    rla_sessions: int = 1


FIGURES: Dict[str, Figure] = {
    "fig7": Figure(
        "Figure 7 - multicast sharing with TCP, drop-tail gateways",
        TREE_CASES, FIG7_DROPTAIL, format_case_table, _fig7_checks),
    "fig8": Figure(
        "Figure 8 - congestion signals per branch (drop-tail runs)",
        TREE_CASES, FIG8_SIGNALS, format_signals_table, _fig8_checks),
    "fig9": Figure(
        "Figure 9 - multicast sharing with TCP, RED gateways",
        TREE_CASES, FIG9_RED, format_case_table, _fig9_checks,
        gateway="red"),
    "fig10": Figure(
        "Figure 10 - different round-trip times (generalized RLA)",
        RTT_CASES, FIG10_RTT, format_case_table, _fig10_checks),
    "multisession": Figure(
        "Section 5.2 - two overlapping multicast sessions",
        {3: TREE_CASES[3]}, {3: MULTISESSION}, format_sessions,
        _multisession_checks, rla_sessions=2),
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
    returns results keyed by case number.  ``runtime`` is
    :func:`repro.lifecycle.run_many`'s option set (``workers``, ``cache``,
    ``checkpoint_at``, ``outcomes``); ``audited=True`` runs every case
    under the :mod:`repro.audit` conservation auditor.
    """
    specs = {number: _spec(name, number, duration=duration, warmup=warmup,
                           seed=seed, audited=audited)
             for number in (FIGURES[name].cases if cases is None else cases)}
    return dict(zip(specs, run_many(specs.values(), **runtime)))


def _spec(name: str, number: int, **run: Any) -> TreeExperimentSpec:
    """Case ``number`` of figure ``name``; ``run``: horizon, seed, audit."""
    figure = FIGURES[name]
    return TreeExperimentSpec(case=lookup_case(figure.cases, number),
                              gateway=figure.gateway,
                              rla_sessions=figure.rla_sessions, **run)


def figure_table(name: str, results: Dict[int, TreeExperimentResult]) -> str:
    """Render figure ``name``'s table with the paper's numbers beside ours."""
    figure = FIGURES[name]
    return figure.render({case: [result] for case, result in results.items()},
                         paper=figure.paper, title=figure.title)


def run_paper(names: List[str], duration: float, warmup: float, seed: int,
              audited: bool, **runtime: Any) -> Tuple[str, bool]:
    """Run every case of each figure in ``names`` (none: all) over seeds
    ``seed`` .. ``seed + SEEDS - 1`` through one
    :func:`repro.lifecycle.run_many` call (``runtime`` is its option set;
    figure 8's runs are figure 7's, run once).  Returns each figure's
    table (mean ± 95 % CI [paper]), Theorem I/II count per case and check
    lines; and whether a check failed at ``GATED_FROM`` seconds or more."""
    unknown = sorted(set(names) - set(FIGURES))
    if unknown:
        raise ConfigurationError(f"unknown figure {', '.join(unknown)}; "
                                 f"expected some of {' '.join(FIGURES)}")
    grid = {(name, number): [_spec(name, number, duration=duration,
                                   warmup=warmup, seed=s, audited=audited)
                             for s in range(seed, seed + SEEDS)]
            for name in names or FIGURES for number in FIGURES[name].cases}
    unique = {repr(spec): spec for specs in grid.values() for spec in specs}
    done = dict(zip(unique, run_many(unique.values(), **runtime)))
    runs: Dict[str, Runs] = {}
    for (name, number), specs in grid.items():
        runs.setdefault(name, {})[number] = [done[repr(s)] for s in specs]
    lines = [f"seeds {seed}-{seed + SEEDS - 1}, {duration:g} s measured "
             f"after {warmup:g} s warm-up; a cell is the mean over seeds "
             f"± its 95 % CI (Student t, 4 df) [paper]"]
    checks: List[Check] = []
    for name, figure_runs in runs.items():
        figure = FIGURES[name]
        theorem = "Theorem I" if figure.gateway == "red" else "Theorem II"
        counts = ", ".join(f"case {case} holds {_held(rs)}/{len(rs)}"
                           for case, rs in figure_runs.items())
        own = figure.checks(figure_runs)
        checks += own
        lines += ["", figure.title, figure.render(figure_runs,
                                                  paper=figure.paper),
                  f"{theorem}: {counts}",
                  *(f"{'PASS' if ok else 'FAIL'}  {line}" for line, ok in own)]
    passed, gated = all(ok for _, ok in checks), duration >= GATED_FROM
    lines += ["", ("all checks PASS" if passed else "a check FAILED") + (
        "" if gated else f"; not gated below {GATED_FROM:g} s measured")]
    return "\n".join(lines), not passed and gated
