"""Experiment harness: the paper's figures and tables (DESIGN.md S14)."""

from .fig4_drift import drift_field, render_field
from .fig5_density import (
    PacketDensityResult,
    run_packet_density,
    run_particle_density,
)
from .figures import FIGURES, figure_table, run_figure
from .runner import (
    TreeExperimentResult,
    TreeExperimentSpec,
    run_tree_experiment,
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
    "FIGURES",
    "PacketDensityResult",
    "TreeExperimentResult",
    "TreeExperimentSpec",
    "drift_field",
    "figure_table",
    "format_case_table",
    "format_signals_table",
    "format_sweep",
    "render_field",
    "render_grid",
    "sweep_buffer_size",
    "sweep_receiver_count",
    "sweep_share",
    "run_figure",
    "run_packet_density",
    "run_particle_density",
    "run_symmetric_spec",
    "run_tree_experiment",
    "tree_runspec",
]
