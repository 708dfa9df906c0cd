"""Fluid-run execution.

:func:`run_fluid` turns one :class:`FluidSpec` into the same kind of
JSON-friendly report row the packet-level runners emit — ``rla_pps``,
``wtcp_pps``, ``ratio``, ``jain``, an essential-fairness verdict and a
``sim_stats`` block — so :class:`repro.runtime.RunMetrics`, the result
cache, and every table formatter downstream work on fluid rows without
modification.  ``sim_stats["events"]`` counts RK4 steps (the fluid
analogue of engine events), and each row carries ``backend: "fluid"``
plus the population totals, which is how a 10⁶-flow row announces that
no packet was harmed in its making.

:class:`FluidSpec` names :func:`run_fluid` as its runner, so fluid
batches inherit :func:`repro.lifecycle.run_many`'s process pool and
on-disk cache; the integration is RNG-free, making the serial/parallel
byte-identity trivial to uphold (and locked by test).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from ..models.fairness import (
    bound_columns,
    check_essential_fairness,
    jain_index_weighted,
)
from .integrate import FluidResult, integrate
from .model import FluidModel
from .spec import FluidSpec
from .stability import reynier_check


def _population_jain(spec: FluidSpec, result: FluidResult,
                     rla_pps: float) -> float:
    """Weighted Jain index over every flow the cohorts describe."""
    values: List[float] = []
    weights: List[int] = []
    for cohort, goodput in zip(spec.tcp_cohorts,
                               result.means["tcp_goodput"]):
        values.append(max(goodput, 0.0))
        weights.append(cohort.flows)
    if spec.rla_cohorts:
        values.append(max(rla_pps, 0.0))
        weights.append(1)
    return jain_index_weighted(values, weights) if values else 1.0


def run_fluid(spec: FluidSpec) -> Dict[str, Any]:
    """Integrate one fluid spec and return its report row.

    A pure, RNG-free function of the spec: the same ``FluidSpec``
    yields a byte-identical row in any process or interpreter.
    :func:`integrate` validates the spec before any work is done.
    One :class:`FluidModel` — one compiled kernel — serves both the
    integration and the stability margin.
    """
    model = FluidModel(spec)
    result = integrate(spec, model)
    means = result.means

    tcp_goodput = means["tcp_goodput"]
    rla_pps = min(means["rla_goodput"]) if spec.rla_cohorts else 0.0
    wtcp = min(tcp_goodput) if spec.tcp_cohorts else float("nan")
    ratio = (rla_pps / wtcp
             if spec.rla_cohorts and spec.tcp_cohorts and wtcp > 0
             else float("nan"))

    sim_stats: Dict[str, Any] = {
        "events": result.steps,
        "drops": sum(means["drop_rate"]) * result.measured_s,
        "peak_queue_depth": max(result.peak_queue),
        "sim_time": spec.horizon,
        "backend": "fluid",
    }

    disciplines = {bn.discipline for bn in spec.bottlenecks}
    # a population counts as drop-tail (Theorem II) only if every queue is
    gateway = "droptail" if disciplines == {"droptail"} else "red"
    row: Dict[str, Any] = {
        "scenario": spec.name,
        "backend": "fluid",
        "gateway": "+".join(sorted(disciplines)),
        "seed": spec.seed,
        "n_flows": spec.n_tcp_flows,
        "n_receivers": spec.n_receivers,
        "rla_pps": rla_pps,
        "wtcp_pps": wtcp,
        "ratio": ratio,
        "jain": _population_jain(spec, result, rla_pps),
        "tcp_goodput_pps": list(tcp_goodput),
        "tcp_windows": list(means["tcp_window"]),
        "rla_window": (means["rla_window"][0]
                       if spec.rla_cohorts else float("nan")),
        "mean_queue": list(means["queue"]),
        "mean_avg_queue": list(means["avg_queue"]),
        "mean_loss": list(means["loss"]),
        "sim_stats": sim_stats,
    }
    # without an RLA cohort rla_pps is a placeholder, not a rate to judge
    row.update(bound_columns(check_essential_fairness(
        rla_pps, wtcp, max(1, spec.n_receivers), gateway)
        if spec.rla_cohorts else None))

    if len(spec.bottlenecks) == 1:
        eq = reynier_check(spec, model)
        row["equilibrium"] = {
            "status": eq.status,
            "p": eq.p,
            "queue": eq.queue,
            "stability_margin": eq.stability_margin,
        }
    return row


def format_fluid(rows: List[Dict[str, Any]]) -> str:
    """Fixed-width fluid table: populations, rates, bounds, stability."""
    header = (f"{'name':<26} {'gateway':<9} {'flows':>9} {'recv':>9} "
              f"{'rla':>9} {'wtcp':>9} {'ratio':>7} {'jain':>6} "
              f"{'bound':>5} {'margin':>9}")
    lines = [header, "-" * len(header)]
    for row in rows:
        ratio = row["ratio"]
        ratio_s = f"{ratio:7.3f}" if not math.isnan(ratio) else f"{'-':>7}"
        wtcp = row["wtcp_pps"]
        wtcp_s = f"{wtcp:9.2f}" if not math.isnan(wtcp) else f"{'-':>9}"
        bound = row.get("bound_ok")
        bound_s = "-" if bound is None else ("ok" if bound else "FAIL")
        margin = row.get("equilibrium", {}).get("stability_margin")
        margin_s = f"{margin:9.3f}" if margin is not None else f"{'-':>9}"
        lines.append(
            f"{row['scenario']:<26} {row['gateway']:<9} "
            f"{row['n_flows']:>9} {row['n_receivers']:>9} "
            f"{row['rla_pps']:9.2f} {wtcp_s} {ratio_s} {row['jain']:6.3f} "
            f"{bound_s:>5} {margin_s}"
        )
    return "\n".join(lines)
