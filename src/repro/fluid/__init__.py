"""Mean-field fluid backend: population-scale runs without packets.

Models heterogeneous TCP and RLA flow populations sharing drop-tail/RED
bottlenecks as a deterministic ODE system (the McDonald-Reynier
mean-field limit), cross-validated against the packet simulator at
10-100 flows and used to extend the paper's fairness-bound figures to
10⁵-10⁶ flows.  See docs/FLUID.md for the derivation, validity
envelope, and measured tolerances.

The root loads nothing but the integrator: a name loads its module on
first use, so a fluid command never loads :mod:`.crossval`, the one
module that builds packet worlds too.  ``integrate`` is bound eagerly
because it names a submodule as well, and importing that submodule
would otherwise rebind the name to the module.
"""

from .. import lazy_exports
from .integrate import integrate

__getattr__, __all__ = lazy_exports(__name__, (
    "repro.fluid.crossval:CROSSVAL_CASES", "repro.fluid.spec:DROPTAIL_RAMP",
    "repro.fluid.spec:FLUID_DISCIPLINES", "repro.fluid.model:MIN_WINDOW",
    "repro.fluid.spec:BottleneckSpec", "repro.fluid.crossval:CrossvalCase",
    "repro.fluid.crossval:CrossvalRow",
    "repro.fluid.stability:EquilibriumReport",
    "repro.fluid.model:FluidModel", "repro.fluid.integrate:FluidResult",
    "repro.fluid.spec:FluidSpec", "repro.fluid.spec:RlaCohortSpec",
    "repro.fluid.spec:TcpCohortSpec",
    "repro.fluid.adapters:cohort_fluid_spec",
    "repro.fluid.crossval:crossval_case",
    "repro.fluid.stability:equilibrium_state",
    "repro.fluid.adapters:mean_field_w_q",
    "repro.fluid.crossval:format_crossval", "repro.fluid.runner:format_fluid",
    "repro.fluid.integrate:integrate",
    "repro.fluid.adapters:restricted_fluid_spec",
    "repro.fluid.stability:reynier_check", "repro.fluid.integrate:rk4_step",
    "repro.fluid.crossval:run_crossval", "repro.fluid.runner:run_fluid",
    "repro.fluid.adapters:run_symmetric_fluid_spec",
    "repro.fluid.adapters:scaled_bottleneck",
    "repro.fluid.stability:solve_equilibrium",
    "repro.fluid.stability:stability_margin",
    "repro.fluid.adapters:symmetric_fluid_spec",
))
