"""Fairness bounds at 10⁵–10⁶ flows via the fluid backend.

The paper's evaluation tops out at a few dozen flows because every
packet is simulated.  The mean-field fluid model of :mod:`repro.fluid`
removes that ceiling: its state is O(cohorts), so a million-flow
population integrates in seconds.  This experiment reproduces the
essential-fairness table — RLA throughput vs the worst TCP cohort,
their ratio against the Theorem I/II bounds, and the population Jain
index — on the RTT-cohort dumbbell at populations the packet backend
could never reach, holding the *per-flow* operating point (share, RTT,
loss) fixed as everything scales together.

Each point also carries the Reynier stability margin of its RED
equilibrium, so the table shows not just *that* the bounds hold at
10⁶ flows but that the operating point the fluid model converged to is
the locally stable fixed point of the mean-field dynamics.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List

#: Default population ladder: packet-comparable up to a thousand, then
#: the mean-field-only territory the packet backend cannot reach.
POPULATION_COUNTS = (100, 1_000, 10_000, 100_000, 1_000_000)

#: TCP flows in the scale-1 cell (the packet grid's population).
BASE_FLOWS = 4


def population_spec(
    n_flows: int,
    gateway: str = "red",
    spread: str = "wide",
    duration: float = 20.0,
    warmup: float = 5.0,
    seed: int = 1,
):
    """The fluid spec for one population point.

    ``n_flows`` total TCP flows (split across the fast/slow cohorts);
    receivers, capacity and buffer scale in proportion so every point
    sits at the same per-flow share.
    """
    from ..errors import ConfigurationError
    from ..scenarios.grid import fluid_grid_cell

    if n_flows < BASE_FLOWS:
        raise ConfigurationError(
            f"population needs >= {BASE_FLOWS} flows: {n_flows}"
        )
    scale = n_flows / BASE_FLOWS
    spec = fluid_grid_cell(gateway, spread, duration=duration,
                           warmup=warmup, seed=seed, scale=scale)
    return spec.replace(name=f"population {gateway} n={n_flows}")


def run_population(
    counts: Iterable[int] = POPULATION_COUNTS,
    gateway: str = "red",
    spread: str = "wide",
    duration: float = 20.0,
    warmup: float = 5.0,
    seed: int = 1,
) -> List[Dict[str, Any]]:
    """Fluid fairness rows across the population ladder, run serially.

    Each row's ``sim_stats`` carries its wall-clock seconds (``wall_s``),
    the number the table reports — which is why this is a loop of its
    own and not :func:`repro.lifecycle.run_many`: a cached result could
    not carry the host's time.
    """
    from ..fluid.runner import run_fluid

    specs = [population_spec(n, gateway=gateway, spread=spread,
                             duration=duration, warmup=warmup, seed=seed)
             for n in counts]
    rows = []
    for spec in specs:
        start = time.perf_counter()
        row = run_fluid(spec)
        row["sim_stats"]["wall_s"] = time.perf_counter() - start
        rows.append(row)
    return rows


def format_population(rows: List[Dict[str, Any]]) -> str:
    """Fixed-width population table: bounds, Jain, stability, wall time."""
    header = (f"{'flows':>9} {'recv':>9} {'rla':>9} {'wtcp':>8} "
              f"{'ratio':>7} {'bounds':>16} {'ok':>4} {'jain':>6} "
              f"{'margin':>9} {'wall':>7}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lower = row.get("bound_lower")
        upper = row.get("bound_upper")
        bounds = (f"({lower:.2f}, {upper:.2f})"
                  if lower is not None and upper is not None else "-")
        bound_ok = row.get("bound_ok")
        ok = "-" if bound_ok is None else ("yes" if bound_ok else "NO")
        margin = row.get("equilibrium", {}).get("stability_margin")
        margin_s = f"{margin:9.3f}" if margin is not None else f"{'-':>9}"
        wall = row.get("sim_stats", {}).get("wall_s")
        wall_s = f"{wall:6.2f}s" if wall is not None else f"{'-':>7}"
        lines.append(
            f"{row['n_flows']:>9} {row['n_receivers']:>9} "
            f"{row['rla_pps']:9.2f} {row['wtcp_pps']:8.2f} "
            f"{row['ratio']:7.3f} {bounds:>16} {ok:>4} "
            f"{row['jain']:6.3f} {margin_s} {wall_s}"
        )
    return "\n".join(lines)
