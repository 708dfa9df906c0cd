"""Mean-field fluid backend: population-scale runs without packets.

Models heterogeneous TCP and RLA flow populations sharing drop-tail/RED
bottlenecks as a deterministic ODE system (the McDonald-Reynier
mean-field limit), cross-validated against the packet simulator at
10-100 flows and used to extend the paper's fairness-bound figures to
10⁵-10⁶ flows.  See docs/FLUID.md for the derivation, validity
envelope, and measured tolerances.
"""

from .adapters import (
    cohort_fluid_spec,
    mean_field_w_q,
    restricted_fluid_spec,
    run_symmetric_fluid_spec,
    scaled_bottleneck,
    symmetric_fluid_spec,
)
from .crossval import (
    CROSSVAL_CASES,
    CrossvalCase,
    CrossvalRow,
    crossval_case,
    format_crossval,
    run_crossval,
)
from .integrate import FluidResult, integrate, rk4_step
from .model import MIN_WINDOW, FluidModel
from .runner import format_fluid, run_fluid
from .spec import (
    DROPTAIL_RAMP,
    FLUID_DISCIPLINES,
    BottleneckSpec,
    FluidSpec,
    RlaCohortSpec,
    TcpCohortSpec,
)
from .stability import (
    EquilibriumReport,
    equilibrium_state,
    reynier_check,
    solve_equilibrium,
    stability_margin,
)

__all__ = [
    "CROSSVAL_CASES",
    "DROPTAIL_RAMP",
    "FLUID_DISCIPLINES",
    "MIN_WINDOW",
    "BottleneckSpec",
    "CrossvalCase",
    "CrossvalRow",
    "EquilibriumReport",
    "FluidModel",
    "FluidResult",
    "FluidSpec",
    "RlaCohortSpec",
    "TcpCohortSpec",
    "cohort_fluid_spec",
    "crossval_case",
    "equilibrium_state",
    "mean_field_w_q",
    "format_crossval",
    "format_fluid",
    "integrate",
    "restricted_fluid_spec",
    "reynier_check",
    "rk4_step",
    "run_crossval",
    "run_fluid",
    "run_symmetric_fluid_spec",
    "scaled_bottleneck",
    "solve_equilibrium",
    "stability_margin",
    "symmetric_fluid_spec",
]
