"""Experiment harness: one module per paper figure/table (DESIGN.md S14)."""

from .fig4_drift import drift_field, render_field
from .fig5_density import (
    PacketDensityResult,
    run_packet_density,
    run_particle_density,
)
from .fig7_droptail import fig7_table, run_fig7
from .fig8_signals import fig8_table, run_fig8
from .fig9_red import fig9_table, run_fig9
from .fig10_rtt import fig10_table, run_fig10
from .multisession import run_multisession, summarize
from .runner import (
    TreeExperimentResult,
    TreeExperimentSpec,
    run_tree_experiment,
    run_tree_experiments,
    tree_runspec,
)
from .sweeps import (
    format_sweep,
    run_symmetric_spec,
    sweep_buffer_size,
    sweep_receiver_count,
    sweep_share,
)
from .tables import format_case_table, format_signals_table, render_grid

__all__ = [
    "PacketDensityResult",
    "TreeExperimentResult",
    "TreeExperimentSpec",
    "drift_field",
    "fig10_table",
    "fig7_table",
    "fig8_table",
    "fig9_table",
    "format_case_table",
    "format_signals_table",
    "format_sweep",
    "render_field",
    "render_grid",
    "sweep_buffer_size",
    "sweep_receiver_count",
    "sweep_share",
    "run_fig10",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_multisession",
    "run_packet_density",
    "run_particle_density",
    "run_symmetric_spec",
    "run_tree_experiment",
    "run_tree_experiments",
    "summarize",
    "tree_runspec",
]
