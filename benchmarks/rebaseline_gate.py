"""Re-baseline gate: do two checkouts draw the paper's tables from one population?

A change that moves float tie-breaks (or fixes a modelling bug) changes
every table digit, so byte identity cannot judge it.  This script judges
it by distribution instead, one table cell at a time, across seeds:

    python benchmarks/rebaseline_gate.py collect OUT.json \\
        [--seeds 1 2 3 4 5] [--duration 60] [--warmup 20] [--workers 2]
    python benchmarks/rebaseline_gate.py compare A.json B.json

``collect`` runs every ``FIGURES`` row x case x seed of *the checkout it
sits in* through ``repro.lifecycle.run_many`` (figure 8 renders figure 7's
runs, so a shared run is run and gated once, under figure 7) and writes, per cell, the per-seed
values, plus per run the inputs of its Theorem I/II verdict.  Copy the
script into another checkout to collect that one.

``compare`` prints, for every throughput and cwnd cell, both means with
their 95 % confidence intervals (Student t), the literal rule "B's mean
lies inside A's CI" and a two-sided Welch t-test.  The pass/fail rule,
fixed before any run is looked at:

* **cells** - Holm's step-down correction over all gated cells at family
  level ``ALPHA`` = 0.05; any rejected cell fails the gate.  The literal rule is
  printed for reference only: at 5 seeds a same-population cell leaves
  A's CI with probability ~0.12, and the script prints how many such
  chance exits to expect;
* **verdicts** - the Theorem I/II verdict of each run's *cell means*
  (mean RLA and mean WTCP throughput, ``n`` = the rounded mean number of
  troubled receivers) must be the same on both sides.

Exit status 0 on a pass, 1 on a fail.  Stdlib only: the t distribution
is computed here (regularised incomplete beta), not imported.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

#: the report keys gated in every block (RLA, WTCP, BTCP) of a tree run
_METRICS = ("throughput_pps", "mean_cwnd")
#: family-wise error rate of the per-cell Welch tests (Holm)
ALPHA = 0.05


# ----------------------------------------------------------------------
# collect
# ----------------------------------------------------------------------
def _run_cells(figure: str, case: int, result) -> Dict[str, float]:
    """The gated cells of one tree run, keyed ``figure/case/block/metric``."""
    if figure == "multisession":
        blocks = {f"RLA{i}": rla for i, rla in enumerate(result.rla)}
    else:
        blocks = {"RLA": result.rla[0], "WTCP": result.wtcp,
                  "BTCP": result.btcp}
    return {f"{figure}/case{case}/{block}/{metric}": float(report[metric])
            for block, report in blocks.items() for metric in _METRICS}


def collect(out: Path, seeds: Sequence[int], duration: float, warmup: float,
            workers: Optional[int]) -> dict:
    sys.path.insert(0, str(SRC))
    from repro.experiments.figures import FIGURES
    from repro.experiments.runner import TreeExperimentSpec
    from repro.lifecycle import run_many

    jobs: List[Tuple[str, int, int, object]] = []
    for name, figure in FIGURES.items():
        for case_id, case in figure.cases.items():
            for seed in seeds:
                jobs.append((name, case_id, seed, TreeExperimentSpec(
                    case=case, gateway=figure.gateway, duration=duration,
                    warmup=warmup, seed=seed,
                    rla_sessions=figure.rla_sessions)))
    # specs are unhashable; a run shared by two rows (figure 8 renders
    # figure 7's) is run, and gated, once, under the first row
    unique = {}
    for *_, spec in jobs:
        unique.setdefault(repr(spec), spec)
    jobs = [job for job in jobs if unique[repr(job[3])] is job[3]]
    start = time.perf_counter()
    reports = dict(zip(unique, run_many(unique.values(), workers=workers)))
    wall = time.perf_counter() - start

    cells: Dict[str, List[float]] = {}
    runs: Dict[str, dict] = {}
    for name, case_id, seed, spec in jobs:
        result = reports[repr(spec)]
        for key, value in _run_cells(name, case_id, result).items():
            cells.setdefault(key, []).append(value)
        run = runs.setdefault(f"{name}/case{case_id}", {
            "gateway": spec.gateway, "rla_pps": [], "wtcp_pps": [],
            "num_trouble": []})
        run["rla_pps"].append(result.rla[0]["throughput_pps"])
        run["wtcp_pps"].append(result.wtcp["throughput_pps"])
        run["num_trouble"].append(result.rla[0]["num_trouble"])
    record = {"seeds": list(seeds), "duration": duration, "warmup": warmup,
              "distinct_runs": len(unique), "wall_s": round(wall, 1),
              "cells": cells, "runs": runs}
    out.write_text(json.dumps(record, indent=1) + "\n")
    return record


# ----------------------------------------------------------------------
# the t distribution, stdlib only
# ----------------------------------------------------------------------
def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta (Numerical Recipes 6.4)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf2(t: float, df: float) -> float:
    """Two-sided tail ``P(|T| >= |t|)`` of Student's t with ``df`` dof."""
    if math.isinf(t):
        return 0.0
    return _betainc(df / 2.0, 0.5, df / (df + t * t))


def t_quantile(p: float, df: float) -> float:
    """``q`` with ``P(T <= q) = p`` for ``p`` in (0.5, 1), by bisection."""
    lo, hi = 0.0, 1e3
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if 1.0 - t_sf2(mid, df) / 2.0 < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def mean_ci(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and 95 % CI half-width (0 for a single value)."""
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    half = (t_quantile(0.975, len(values) - 1)
            * statistics.stdev(values) / math.sqrt(len(values)))
    return mean, half


def welch_p(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Welch t-test p-value (1 if both samples are constant and
    equal, 0 if constant and different)."""
    if len(a) < 2 or len(b) < 2:
        return 1.0 if statistics.fmean(a) == statistics.fmean(b) else 0.0
    va, vb = statistics.variance(a), statistics.variance(b)
    se2 = va / len(a) + vb / len(b)
    diff = statistics.fmean(b) - statistics.fmean(a)
    if se2 == 0.0:
        return 1.0 if diff == 0.0 else 0.0
    df = se2 ** 2 / ((va / len(a)) ** 2 / (len(a) - 1)
                     + (vb / len(b)) ** 2 / (len(b) - 1))
    return t_sf2(diff / math.sqrt(se2), df)


def holm(pvalues: Dict[str, float], alpha: float) -> Dict[str, bool]:
    """Holm's step-down procedure: which hypotheses are rejected."""
    ordered = sorted(pvalues, key=pvalues.get)
    rejected = {key: False for key in pvalues}
    for rank, key in enumerate(ordered):
        if pvalues[key] > alpha / (len(ordered) - rank):
            break
        rejected[key] = True
    return rejected


def chance_exit_probability(n_a: int, n_b: int) -> float:
    """P(B's mean leaves A's 95 % CI) when both sides share one normal
    population: ``P(|t_{n_a-1}| > t_crit / sqrt(1 + n_a/n_b))``."""
    crit = t_quantile(0.975, n_a - 1)
    return t_sf2(crit / math.sqrt(1.0 + n_a / n_b), n_a - 1)


def cell_verdict(run: dict) -> Optional[bool]:
    """Theorem I/II verdict (``fair``) of one run's cell means."""
    from repro.models.fairness import check_essential_fairness

    n = max(round(statistics.fmean(run["num_trouble"])), 1)
    verdict = check_essential_fairness(statistics.fmean(run["rla_pps"]),
                                       statistics.fmean(run["wtcp_pps"]),
                                       n, run["gateway"])
    return None if verdict is None else verdict.fair


def compare(a: dict, b: dict) -> bool:
    sys.path.insert(0, str(SRC))
    keys = [key for key in a["cells"] if key in b["cells"]]
    missing = sorted(set(a["cells"]) ^ set(b["cells"]))
    pvalues = {key: welch_p(a["cells"][key], b["cells"][key]) for key in keys}
    rejected = holm(pvalues, ALPHA)
    n_a, n_b = len(a["seeds"]), len(b["seeds"])

    print(f"A: seeds {a['seeds']}, {a['duration']:g} s + {a['warmup']:g} s "
          f"warm-up; B: seeds {b['seeds']}, {b['duration']:g} s + "
          f"{b['warmup']:g} s")
    width = max(map(len, keys), default=4)
    print(f"{'cell':<{width}}  {'A mean +- 95% CI':>18}  "
          f"{'B mean +- 95% CI':>18}  in-CI  {'Welch p':>8}  Holm")
    exits = 0
    for key in keys:
        mean_a, half_a = mean_ci(a["cells"][key])
        mean_b, half_b = mean_ci(b["cells"][key])
        inside = abs(mean_b - mean_a) <= half_a
        exits += not inside
        print(f"{key:<{width}}  {mean_a:9.2f} +- {half_a:6.2f}  "
              f"{mean_b:9.2f} +- {half_b:6.2f}  "
              f"{'yes' if inside else 'NO ':>5}  {pvalues[key]:8.4f}  "
              f"{'REJECT' if rejected[key] else 'ok'}")
    expected = len(keys) * chance_exit_probability(n_a, n_b) if n_a > 1 else 0
    print(f"literal rule (B mean inside A's CI): {exits} of {len(keys)} "
          f"cells outside; {expected:.1f} expected by chance alone")

    flips = []
    for name in sorted(set(a["runs"]) & set(b["runs"])):
        left, right = cell_verdict(a["runs"][name]), cell_verdict(b["runs"][name])
        print(f"verdict {name:<20} A {left}  B {right}"
              f"{'' if left == right else '   DIFFERS'}")
        if left != right:
            flips.append(name)

    failed = sorted(key for key, bad in rejected.items() if bad)
    for key in missing:
        print(f"! cell {key} is in only one file")
    for key in failed:
        print(f"! cell {key}: Welch p {pvalues[key]:.2g} rejected by Holm "
              f"at family alpha {ALPHA}")
    for name in flips:
        print(f"! verdict {name} differs")
    ok = not (failed or flips or missing)
    print(f"gate {'PASS' if ok else 'FAIL'}: {len(failed)} of {len(keys)} "
          f"cells rejected, {len(flips)} verdicts differ")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("collect", help="run the tables at several seeds")
    run.add_argument("out", type=Path)
    run.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    run.add_argument("--duration", type=float, default=60.0)
    run.add_argument("--warmup", type=float, default=20.0)
    run.add_argument("--workers", type=int, default=None)
    gate = sub.add_parser("compare", help="gate B against A")
    gate.add_argument("a", type=Path)
    gate.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "collect":
        record = collect(args.out, args.seeds, args.duration, args.warmup,
                         args.workers)
        print(f"{args.out}: {len(record['cells'])} cells x "
              f"{len(args.seeds)} seeds from {record['distinct_runs']} runs "
              f"in {record['wall_s']} s")
        return 0
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    return 0 if compare(a, b) else 1


if __name__ == "__main__":
    sys.exit(main())
