"""Experiment harness: the paper's figures and tables (DESIGN.md S14).

Import from the modules: :mod:`.figures` (the ``FIGURES`` table, fig7-fig10
and §5.2), :mod:`.runner` (one tree experiment), :mod:`.sweeps`,
:mod:`.tables`, :mod:`.fig4_drift` and :mod:`.fig5_density`.  This package
root imports nothing, so a cache replay loads no simulator through it.
"""
