"""Parallel experiment runtime (DESIGN.md: the §5 grid at full speed).

The paper's evaluation is a grid of *independent* simulation runs — tree
cases × gateway disciplines × seeds × sensitivity knobs.  This package
executes that grid as fast as the hardware allows while keeping the
results bit-identical to a serial loop:

* :class:`RunSpec` — a content-addressed description of one run
  (entrypoint + params);
* :func:`run_specs` — the executor: process-pool fan-out, one retry of
  a failed run, outcomes in input order;
* :class:`ResultCache` — on-disk cache keyed by spec content and
  :func:`code_version`, so an unchanged spec is never re-simulated;
* :class:`RunMetrics` / :func:`metrics_table` — what each run cost
  (wall time, events, events/s, drops, peak queue depth).

Example (what :func:`repro.lifecycle.run_many` does with a batch; an
entrypoint is any ``"module:function"`` taking the params dict)::

    from repro.experiments.sweeps import symmetric_point
    from repro.lifecycle import runspec
    from repro.runtime import ResultCache, run_specs

    specs = [
        runspec(symmetric_point(n_receivers=n, share_pps=100.0,
                                buffer_pkts=20, duration=60.0, warmup=20.0,
                                seed=1, gateway="droptail"))
        for n in (2, 4, 8, 12)
    ]
    outcomes = run_specs(specs, workers=4, cache=ResultCache())
    rows = [o.result for o in outcomes]
"""

from .cache import CacheEntry, ResultCache
from .executor import (
    RunOutcome,
    default_workers,
    execute_spec,
    run_specs,
    snapshot_destination,
)
from .metrics import RunMetrics, build_metrics, extract_sim_stats, metrics_table
from .spec import RunSpec, code_version

__all__ = [
    "CacheEntry",
    "ResultCache",
    "RunMetrics",
    "RunOutcome",
    "RunSpec",
    "build_metrics",
    "code_version",
    "default_workers",
    "execute_spec",
    "extract_sim_stats",
    "metrics_table",
    "run_specs",
    "snapshot_destination",
]
