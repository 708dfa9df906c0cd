"""The AQM × heterogeneity study grid.

The paper's essential-fairness claims are stated for drop-tail and RED
gateways on homogeneous populations.  This module builds the study
matrix that probes how far they stretch: every queue discipline in
:data:`repro.net.GATEWAY_DISCIPLINES` crossed with per-source
packet-size mixes, fast/slow RTT cohorts sharing one bottleneck, and
ECN on/off.  Each cell is an ordinary :class:`ScenarioSpec` on an
:class:`RttCohortTopology`, so audited runs, caching and checkpointing
all apply unchanged; the invalid drop-tail + ECN cell is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..lifecycle import run_many
from ..net.queue import GATEWAY_DISCIPLINES
from .spec import ScenarioSpec
from .topologies import RttCohortTopology
from .traffic import BackgroundTraffic, PacketSizeMix

#: Named per-source packet-size mixes.  ``None`` keeps the uniform
#: 1000-byte default (and the historical RNG draw sequence).
PACKET_MIXES: Dict[str, Optional[PacketSizeMix]] = {
    "uniform": None,
    "trimodal": PacketSizeMix(mice_weight=0.3, bulk_weight=0.5,
                              video_weight=0.2),
    "video": PacketSizeMix(mice_weight=0.1, bulk_weight=0.3,
                           video_weight=0.6),
}

#: Named RTT spreads: (fast_delay_ms, slow_delay_ms) access one-way
#: propagation per cohort.  "narrow" keeps both cohorts close (~20 ms
#: RTT); "wide" pits ~10 ms RTTs against ~200 ms ones.
RTT_SPREADS: Dict[str, Tuple[float, float]] = {
    "narrow": (4.0, 8.0),
    "wide": (3.0, 95.0),
}

#: Grid backends: packet-level scenario runs, or the mean-field fluid
#: model of :mod:`repro.fluid` (disciplines droptail/red, uniform
#: packets, no ECN — the envelope the fluid dynamics cover).
GRID_BACKENDS = ("packet", "fluid")

#: The queue disciplines the fluid backend models.
FLUID_GRID_DISCIPLINES = ("droptail", "red")


@dataclass(frozen=True)
class GridSpec:
    """Which slice of the full matrix to build.

    Empty tuples mean "every value of that axis".  ``seed`` is shared by
    every cell so rows differ only along the studied dimensions.  On the
    ``fluid`` backend the mix and ECN axes collapse (uniform packets,
    ECN off — all the fluid model covers) and ``scale`` multiplies every
    cell's population and capacity together, which is how the matrix
    extends to 10⁵–10⁶ flows without simulating a single packet.
    """

    disciplines: Tuple[str, ...] = ()
    mixes: Tuple[str, ...] = ()
    spreads: Tuple[str, ...] = ()
    ecn_modes: Tuple[bool, ...] = (False, True)
    duration: float = 20.0
    warmup: float = 5.0
    seed: int = 1
    audited: bool = False
    backend: str = "packet"
    #: Population multiplier for fluid cells (1.0 = the packet twin).
    scale: float = 1.0

    def validate(self) -> "GridSpec":
        """Check every axis value against its registry; return self."""
        if self.backend not in GRID_BACKENDS:
            raise ConfigurationError(
                f"unknown grid backend {self.backend!r}; "
                f"expected one of {GRID_BACKENDS}"
            )
        disciplines = (GATEWAY_DISCIPLINES if self.backend == "packet"
                       else FLUID_GRID_DISCIPLINES)
        for gw in self.disciplines:
            if gw not in disciplines:
                raise ConfigurationError(
                    f"unknown gateway type {gw!r} for {self.backend} grid; "
                    f"expected one of {disciplines}"
                )
        for mix in self.mixes:
            if mix not in PACKET_MIXES:
                raise ConfigurationError(
                    f"unknown packet mix {mix!r}; "
                    f"expected one of {tuple(PACKET_MIXES)}"
                )
        for spread in self.spreads:
            if spread not in RTT_SPREADS:
                raise ConfigurationError(
                    f"unknown RTT spread {spread!r}; "
                    f"expected one of {tuple(RTT_SPREADS)}"
                )
        if self.backend == "fluid":
            if self.scale < 1.0:
                raise ConfigurationError(
                    f"fluid grid scale must be >= 1: {self.scale}"
                )
            if self.audited:
                raise ConfigurationError(
                    "the conservation auditor tracks packets; a fluid "
                    "grid has none to audit"
                )
            if self.mixes and self.mixes != ("uniform",):
                raise ConfigurationError(
                    "fluid grid models uniform packet sizes only; "
                    f"requested mixes {self.mixes}"
                )
            if True in self.ecn_modes:
                raise ConfigurationError(
                    "fluid grid has no ECN model; use --ecn off"
                )
        elif self.scale != 1.0:
            raise ConfigurationError(
                "scale is a fluid-backend knob; the packet grid runs "
                "its literal population"
            )
        return self


def grid_cell(
    gateway: str,
    mix: str,
    spread: str,
    ecn: bool,
    duration: float = 20.0,
    warmup: float = 5.0,
    seed: int = 1,
    audited: bool = False,
) -> ScenarioSpec:
    """One validated cell of the matrix as a runnable :class:`ScenarioSpec`."""
    fast_ms, slow_ms = RTT_SPREADS[spread]
    name = f"grid {gateway} mix={mix} rtt={spread} ecn={'on' if ecn else 'off'}"
    return ScenarioSpec(
        name=name,
        topology=RttCohortTopology(fast_delay_ms=fast_ms,
                                   slow_delay_ms=slow_ms),
        traffic=BackgroundTraffic(tcp_flows=4, mice_rate_per_s=1.0,
                                  mice_mean_pkts=15),
        receivers=4,
        duration=duration,
        warmup=warmup,
        seed=seed,
        gateway=gateway,
        ecn=ecn,
        packet_sizes=PACKET_MIXES[mix],
        audited=audited,
    ).validate()


def grid_specs(grid: GridSpec) -> List[ScenarioSpec]:
    """Every valid cell of the requested slice, in deterministic order.

    Drop-tail + ECN cells are skipped (drop-tail has no early
    notification to convert into a CE mark), so a full grid over the six
    disciplines yields ``6 * mixes * spreads * 2 - mixes * spreads``
    specs rather than the naive product.  A slice of nothing but such
    cells is a :class:`ConfigurationError`, not an empty table.
    """
    grid.validate()
    disciplines = grid.disciplines or GATEWAY_DISCIPLINES
    mixes = grid.mixes or tuple(PACKET_MIXES)
    spreads = grid.spreads or tuple(RTT_SPREADS)
    specs = []
    for gateway in disciplines:
        for mix in mixes:
            for spread in spreads:
                for ecn in grid.ecn_modes:
                    if ecn and gateway == "droptail":
                        continue
                    specs.append(grid_cell(
                        gateway, mix, spread, ecn,
                        duration=grid.duration, warmup=grid.warmup,
                        seed=grid.seed, audited=grid.audited,
                    ))
    if not specs:
        raise ConfigurationError(
            "empty grid slice: drop-tail + ECN cells are skipped "
            "(drop-tail has no early notification to mark)"
        )
    return specs


def fluid_grid_cell(
    gateway: str,
    spread: str,
    duration: float = 20.0,
    warmup: float = 5.0,
    seed: int = 1,
    scale: float = 1.0,
):
    """One fluid cell: the mean-field twin of :func:`grid_cell`'s system.

    Returns a :class:`repro.fluid.FluidSpec` describing the same
    RTT-cohort dumbbell — same bottleneck, buffer, RED thresholds and
    cohort RTTs — with populations and capacity multiplied by ``scale``.
    """
    from ..fluid.adapters import cohort_fluid_spec

    cell = grid_cell(gateway, "uniform", spread, False,
                     duration=duration, warmup=warmup, seed=seed)
    return cohort_fluid_spec(
        cell, scale=scale, name=f"grid {gateway} rtt={spread} scale={scale:g}")


def fluid_grid_specs(grid: GridSpec) -> List[Any]:
    """Every fluid cell of the requested slice, in deterministic order."""
    grid.validate()
    disciplines = grid.disciplines or FLUID_GRID_DISCIPLINES
    spreads = grid.spreads or tuple(RTT_SPREADS)
    return [
        fluid_grid_cell(gateway, spread, duration=grid.duration,
                        warmup=grid.warmup, seed=grid.seed,
                        scale=grid.scale)
        for gateway in disciplines
        for spread in spreads
    ]


def run_grid(
    grid: GridSpec, **runtime: Any,
) -> Tuple[List[Any], List[Dict[str, Any]]]:
    """Run the slice and return ``(specs, rows)`` in matching order.

    The scenario (packet) or fluid specs go to
    :func:`repro.lifecycle.run_many` with the given ``runtime`` options,
    so workers and the content-addressed cache behave exactly as for
    ``scenarios run``.
    """
    specs = (fluid_grid_specs(grid) if grid.backend == "fluid"
             else grid_specs(grid))
    return specs, run_many(specs, **runtime)


def _cohort_cell(row: Dict[str, Any], cohort: str) -> str:
    entry = row.get("cohorts", {}).get(cohort)
    if not entry:
        return f"{'-':>6} {'-':>5}"
    bound = entry.get("bound_ok")
    verdict = "?" if bound is None else ("ok" if bound else "FAIL")
    return f"{entry['jain']:6.3f} {verdict:>5}"


def format_grid(specs: Sequence[ScenarioSpec],
                rows: Iterable[Dict[str, Any]]) -> str:
    """Fixed-width matrix table: one line per cell, cohort columns."""
    header = (f"{'gateway':<13} {'mix':<9} {'rtt':<7} {'ecn':<4} "
              f"{'rla':>8} {'ratio':>7} {'jain':>6} "
              f"{'fastJ':>6} {'fastB':>5} {'slowJ':>6} {'slowB':>5} "
              f"{'viol':>4}")
    lines = [header, "-" * len(header)]
    for spec, row in zip(specs, rows):
        parts = spec.name.split()
        mix = parts[2].split("=", 1)[1] if len(parts) > 2 else "-"
        spread = parts[3].split("=", 1)[1] if len(parts) > 3 else "-"
        ratio = row["ratio"]
        ratio_s = f"{ratio:7.3f}" if not math.isnan(ratio) else f"{'-':>7}"
        violations = row.get("sim_stats", {}).get("violations", "-")
        lines.append(
            f"{spec.gateway:<13} {mix:<9} {spread:<7} "
            f"{'on' if spec.ecn else 'off':<4} "
            f"{row['rla_pps']:8.2f} {ratio_s} {row['jain']:6.3f} "
            f"{_cohort_cell(row, 'fast')} {_cohort_cell(row, 'slow')} "
            f"{violations!s:>4}"
        )
    return "\n".join(lines)
