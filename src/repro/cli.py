"""Command-line entry point: reproduce any paper figure from the shell.

Examples::

    repro-rla fig4
    repro-rla fig7 --duration 120 --warmup 20 --cases 1 3
    repro-rla fig9 --seed 7 --workers 4
    repro-rla fig10 --workers 4 --cache --metrics
    repro-rla fig5 --steps 100000
    repro-rla multisession --duration 150
    repro-rla paper fig9 --duration 600 --warmup 100 --workers 2
    repro-rla sweep --counts 2 4 8 --workers 4
    repro-rla scenarios run tree-churn --checkpoint-at 15 --checkpoint-dir ck
    repro-rla resume ck/<key>.t15.ckpt
    repro-rla fork ck/<key>.t15.ckpt --branches 8

Simulation subcommands (fig7/8/9/10, multisession, paper, sweep) accept:

* ``--workers N`` — fan independent runs out over N processes via
  :mod:`repro.runtime` (results byte-identical to serial);
* ``--cache [DIR]`` — reuse finished runs from the on-disk result cache
  (default directory ``$REPRO_CACHE_DIR`` or ``.repro-cache``); a second
  invocation with unchanged parameters does not re-simulate;
* ``--metrics`` — print a per-run runtime summary (wall time, events,
  events/s, drops, peak queue depth, cache hits);
* ``--audit`` — run under the :mod:`repro.audit` conservation auditor;
  any lost, duplicated or fabricated packet (or sender-state
  inconsistency) aborts the run with a diagnostic.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from functools import partial
from typing import IO, Any, ContextManager, List, Optional

from .errors import ConfigurationError, ReproError

#: The tree-figure subcommands and their help: the rows of
#: :data:`repro.experiments.figures.FIGURES` (tests/experiments/test_cli.py
#: pins the two together).  That module and the tree-experiment chain
#: behind it load only when one of these is parsed, or the full parser is.
_FIGURE_HELP = {
    "fig7": "drop-tail table (cases 1-5)",
    "fig8": "congestion-signal statistics",
    "fig9": "RED table (cases 1-5)",
    "fig10": "different RTTs (generalized RLA)",
    "multisession": "two overlapping RLA sessions",
}

#: benchmarks/rlabench/tracing.py times table rendering by swapping each
#: of these on this module; until it does, :func:`__getattr__` resolves
#: them to ``figure_table``, and _run_tree_figure looks them up per call
#: so it sees the swap.
_SWAPPABLE_TABLES = ("fig7_table", "fig9_table", "fig10_table")


def __getattr__(name: str) -> Any:
    if name in _SWAPPABLE_TABLES:
        from .experiments.figures import figure_table

        return figure_table
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _add_horizon_args(parser: argparse.ArgumentParser,
                      duration: Optional[float], warmup: Optional[float],
                      seed: Optional[int] = 1) -> None:
    parser.add_argument("--duration", type=float, default=duration,
                        help="measured seconds after warmup (paper: 2900)")
    parser.add_argument("--warmup", type=float, default=warmup,
                        help="discarded warmup seconds (paper: 100)")
    parser.add_argument("--seed", type=int, default=seed)


def _add_pool_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run independent simulations over N worker "
                             "processes (default: serial in-process)")
    parser.add_argument("--cache", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="serve unchanged runs from the on-disk result "
                             "cache (DIR defaults to $REPRO_CACHE_DIR or "
                             ".repro-cache)")


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    _add_pool_args(parser)
    parser.add_argument("--metrics", action="store_true",
                        help="print the per-run runtime summary table")
    parser.add_argument("--audit", action="store_true",
                        help="run under the conservation auditor: track "
                             "every packet to its terminal fate and fail "
                             "loudly on any invariant violation")


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    _add_horizon_args(parser, duration=200.0, warmup=20.0)
    _add_runtime_args(parser)


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-at", type=float, default=None,
                        metavar="T",
                        help="write a resumable snapshot of every run at "
                             "interior sim-time T (results unchanged); see "
                             "the 'resume' and 'fork' subcommands")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="directory for snapshot files (defaults to "
                             "the --cache directory)")


def _runtime_kwargs(args: argparse.Namespace, outcomes: List[Any]) -> dict:
    """Translate the runtime options into runner keyword arguments.

    The producer of :func:`repro.lifecycle.run_many`'s option set.
    """
    kwargs: dict = {}
    if args.workers is not None:
        kwargs["workers"] = args.workers
    if args.cache is not None:
        from .runtime import ResultCache

        kwargs["cache"] = ResultCache(args.cache or None)
    if getattr(args, "checkpoint_at", None) is not None:
        kwargs["checkpoint_at"] = args.checkpoint_at
        if args.checkpoint_dir is not None:
            kwargs["checkpoint_dir"] = args.checkpoint_dir
        kwargs.setdefault("workers", 1)
    elif getattr(args, "checkpoint_dir", None) is not None:
        raise ConfigurationError(
            "--checkpoint-dir needs --checkpoint-at (the time to snapshot at)")
    if not kwargs and getattr(args, "metrics", False):
        # --metrics alone still needs the runtime path to collect outcomes
        kwargs["workers"] = 1
    if kwargs:
        kwargs["outcomes"] = outcomes
    return kwargs


def _print_metrics(args: argparse.Namespace, outcomes: List[Any]) -> None:
    if getattr(args, "metrics", False) and outcomes:
        from .runtime import metrics_table

        print()
        print(metrics_table([outcome.metrics for outcome in outcomes]))


def _add_fig5_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=1)


def _add_tree_args(p: argparse.ArgumentParser, name: str) -> None:
    """A FIGURES row: run + checkpoint options and the case selection."""
    from .experiments.figures import FIGURES

    _add_run_args(p)
    _add_checkpoint_args(p)
    p.add_argument("--cases", type=int, nargs="+",
                   default=list(FIGURES[name].cases))


def _add_paper_args(p: argparse.ArgumentParser) -> None:
    _add_run_args(p)
    # no choices=: argparse checks an empty nargs="*" list against them
    p.add_argument("names", nargs="*", metavar="FIGURE",
                   help=f"default: all of {' '.join(_FIGURE_HELP)}")


def _add_sweep_args(sweep: argparse.ArgumentParser) -> None:
    _add_run_args(sweep)
    sweep.add_argument("--counts", type=int, nargs="+", default=[2, 4, 8])
    sweep.add_argument("--backend", choices=["packet", "fluid"],
                       default="packet",
                       help="packet simulation, or the mean-field fluid "
                            "model integrating the same symmetric system")


def _add_scenarios_args(scenarios: argparse.ArgumentParser) -> None:
    from .net.queue import GATEWAY_DISCIPLINES
    from .scenarios.grid import PACKET_MIXES, RTT_SPREADS

    scen_sub = scenarios.add_subparsers(dest="action", required=True)
    scen_sub.add_parser("list", help="list the named scenario catalog")
    scen_run = scen_sub.add_parser("run", help="run named scenarios")
    scen_run.add_argument("names", nargs="+", metavar="NAME",
                          help="catalog scenario names (see 'scenarios list')")
    # None: each scenario's catalog values survive unless overridden
    _add_horizon_args(scen_run, duration=None, warmup=None, seed=None)
    scen_run.add_argument("--gateway", choices=list(GATEWAY_DISCIPLINES),
                          default=None, help="override the gateway type")
    scen_run.add_argument("--ecn", action="store_true", default=None,
                          help="CE-mark instead of early-dropping (needs an "
                               "AQM gateway) and let endpoints react to marks")
    _add_runtime_args(scen_run)
    _add_checkpoint_args(scen_run)

    scen_grid = scen_sub.add_parser(
        "grid", help="run the AQM x heterogeneity study matrix")
    scen_grid.add_argument("--gateways", nargs="+", metavar="GW",
                           choices=list(GATEWAY_DISCIPLINES), default=None,
                           help="restrict the queue-discipline axis "
                                "(default: all disciplines)")
    scen_grid.add_argument("--mixes", nargs="+", metavar="MIX",
                           choices=list(PACKET_MIXES), default=None,
                           help="restrict the packet-size-mix axis "
                                "(default: all mixes)")
    scen_grid.add_argument("--spreads", nargs="+", metavar="RTT",
                           choices=list(RTT_SPREADS), default=None,
                           help="restrict the RTT-spread axis "
                                "(default: all spreads)")
    scen_grid.add_argument("--ecn", choices=["off", "on", "both"],
                           default="both",
                           help="ECN axis (droptail+on cells are skipped)")
    _add_horizon_args(scen_grid, duration=20.0, warmup=5.0)  # per cell
    _add_runtime_args(scen_grid)
    scen_grid.add_argument("--backend", choices=["packet", "fluid"],
                           default="packet",
                           help="packet scenarios, or mean-field fluid "
                                "cells (droptail/red, uniform, no ECN)")
    scen_grid.add_argument("--scale", type=float, default=1.0,
                           metavar="X",
                           help="fluid-backend population multiplier "
                                "(e.g. 25000 for a 10^5-flow matrix)")


def _add_fluid_args(fluid: argparse.ArgumentParser) -> None:
    fluid_sub = fluid.add_subparsers(dest="action", required=True)
    fluid_cv = fluid_sub.add_parser(
        "crossval", help="fluid-vs-packet regression set with error tables")
    fluid_cv.add_argument("--cases", nargs="+", default=None,
                          metavar="SUBSTR",
                          help="only run cases whose name contains one of "
                               "these substrings (default: all)")
    _add_pool_args(fluid_cv)  # the packet sides
    fluid_scale = fluid_sub.add_parser(
        "scale", help="fairness bounds at 10^5-10^6 flows (fluid only)")
    fluid_scale.add_argument("--counts", type=int, nargs="+",
                             default=None, metavar="N",
                             help="total TCP flows per point (default: "
                                 "100 1k 10k 100k 1M)")
    fluid_scale.add_argument("--gateway", choices=["droptail", "red"],
                             default="red")
    fluid_scale.add_argument("--spread", choices=["narrow", "wide"],
                             default="wide",
                             help="RTT-cohort spread of the scaled dumbbell")
    _add_horizon_args(fluid_scale, duration=20.0, warmup=5.0)


def _add_resume_args(
    p: argparse.ArgumentParser,
    out_help: str = "pickle the finished report to FILE",
) -> None:
    p.add_argument("snapshot", metavar="SNAPSHOT.ckpt",
                   help="file written by --checkpoint-at")
    p.add_argument("--out", default=None, metavar="FILE", help=out_help)
    p.add_argument("--allow-code-mismatch", action="store_true",
                   help="restore even if the snapshot was captured "
                        "under different simulator code")


def _add_fork_args(p: argparse.ArgumentParser) -> None:
    _add_resume_args(p, out_help="pickle the [(label, report)] list to FILE")
    p.add_argument("--branches", type=int, default=4, metavar="N",
                   help="how many variant futures to run (default 4)")
    p.add_argument("--prefix", default="fork",
                   help="branch label prefix (labels seed the branches)")


def _run_fig4(args: argparse.Namespace) -> None:
    from .experiments.fig4_drift import render_field

    print(render_field())


def _run_fig5(args: argparse.Namespace) -> None:
    from .experiments.fig5_density import run_particle_density

    trace = run_particle_density(steps=args.steps, seed=args.seed)
    print(f"mean cwnds: ({trace.mean_w1:.1f}, {trace.mean_w2:.1f}); "
          f"fair point {trace.model.operating_point()}; "
          f"mass within radius 10: {trace.mass_within(10.0):.2%}")


def _run_tree_figure(args: argparse.Namespace) -> None:
    """A FIGURES row: run its cases, print its table."""
    from .experiments.figures import figure_table, run_figure

    outcomes: List[Any] = []
    results = run_figure(args.figure, duration=args.duration,
                         warmup=args.warmup, seed=args.seed, cases=args.cases,
                         audited=args.audit, **_runtime_kwargs(args, outcomes))
    table = globals().get(f"{args.figure}_table", figure_table)
    print(table(args.figure, results))
    _print_metrics(args, outcomes)


def _run_paper(args: argparse.Namespace) -> int:
    """Every case of the named figures over five seeds: tables, checks."""
    from .experiments.figures import run_paper

    outcomes: List[Any] = []
    report, failed = run_paper(
        args.names, duration=args.duration, warmup=args.warmup,
        seed=args.seed, audited=args.audit, **_runtime_kwargs(args, outcomes))
    print(report)
    _print_metrics(args, outcomes)
    return int(failed)


def _run_sweep(args: argparse.Namespace) -> None:
    from .experiments.sweeps import format_sweep, sweep

    outcomes: List[Any] = []
    rows = sweep("n_receivers", args.counts, duration=args.duration,
                 warmup=args.warmup, seed=args.seed, audited=args.audit,
                 backend=args.backend, **_runtime_kwargs(args, outcomes))
    print(format_sweep(rows, "n_receivers"))
    _print_metrics(args, outcomes)


def _run_scenarios(args: argparse.Namespace) -> None:
    if args.action == "list":
        from .scenarios import format_catalog

        print(format_catalog())
        return
    outcomes: List[Any] = []
    if args.action == "grid":
        from .scenarios.grid import GridSpec, format_grid, run_grid

        ecn_modes = {"off": (False,), "on": (True,),
                     "both": (False, True)}[args.ecn]
        if args.backend == "fluid" and args.ecn == "both":
            ecn_modes = (False,)  # the fluid model has no ECN axis
        grid = GridSpec(
            disciplines=tuple(args.gateways or ()),
            mixes=tuple(args.mixes or ()),
            spreads=tuple(args.spreads or ()),
            ecn_modes=ecn_modes,
            duration=args.duration, warmup=args.warmup,
            seed=args.seed, audited=args.audit,
            backend=args.backend, scale=args.scale,
        )
        specs, rows = run_grid(grid, **_runtime_kwargs(args, outcomes))
        if args.backend == "fluid":
            from .fluid.runner import format_fluid

            print(format_fluid(rows))
        else:
            print(format_grid(specs, rows))
        _print_metrics(args, outcomes)
        return
    from .lifecycle import run_many
    # through the package root: rlabench times rendering by swapping it there
    from .scenarios import format_scenarios, get_scenario

    overrides = {k: v for k, v in (
        ("duration", args.duration), ("warmup", args.warmup),
        ("seed", args.seed), ("gateway", args.gateway),
        ("ecn", args.ecn),
    ) if v is not None}
    if args.audit:
        overrides["audited"] = True
    specs = [get_scenario(name, **overrides) for name in args.names]
    rows = run_many(specs, **_runtime_kwargs(args, outcomes))
    print(format_scenarios(rows))
    _print_metrics(args, outcomes)


def _run_resume(args: argparse.Namespace) -> None:
    from .checkpoint import load, resume

    snapshot = load(args.snapshot,
                    allow_code_mismatch=args.allow_code_mismatch)
    with _open_out(args.out) as out:
        print(f"restoring {snapshot.label or args.snapshot} "
              f"at t={snapshot.sim_time:g} ...")
        report = resume(snapshot)
        print(_describe_report(report))
        _pickle_out(out, report)


def _run_fork(args: argparse.Namespace) -> None:
    from .checkpoint import branch_labels, load, run_fork_ensemble

    snapshot = load(args.snapshot,
                    allow_code_mismatch=args.allow_code_mismatch)
    labels = branch_labels(args.branches, prefix=args.prefix)
    with _open_out(args.out) as out:
        print(f"forking {snapshot.label or args.snapshot} "
              f"at t={snapshot.sim_time:g} into {len(labels)} branches ...")
        results = run_fork_ensemble(snapshot, labels)
        for label, report in results:
            print(f"[{label}] {_describe_report(report)}")
        _pickle_out(out, results)


def _run_fluid(args: argparse.Namespace) -> int:
    """The ``fluid`` subcommand: crossval tables and population scaling."""
    if args.action == "crossval":
        from .fluid.crossval import (
            CROSSVAL_CASES,
            format_crossval,
            run_crossval,
        )

        cases = CROSSVAL_CASES
        if args.cases:
            cases = tuple(case for case in CROSSVAL_CASES
                          if any(sub in case.name for sub in args.cases))
            if not cases:
                known = ", ".join(case.name for case in CROSSVAL_CASES)
                raise ConfigurationError(
                    f"no crossval case matches {args.cases}; have: {known}")
        results = run_crossval(cases=cases, **_runtime_kwargs(args, []))
        print(format_crossval(results))
        failed = sum(1 for _, _, _, rows in results
                     for row in rows if not row.ok)
        if failed:
            print(f"\n{failed} metric(s) outside tolerance")
            return 1
        return 0
    from .experiments.population import (
        POPULATION_COUNTS,
        format_population,
        run_population,
    )

    rows = run_population(
        counts=args.counts or POPULATION_COUNTS,
        gateway=args.gateway, spread=args.spread,
        duration=args.duration, warmup=args.warmup, seed=args.seed,
    )
    print(format_population(rows))
    return 0


#: subcommand -> (help, what adds its options, what runs it).  Options are
#: added — and the modules their ``choices=`` come from imported — only
#: for the subcommand being parsed; each runner imports what it needs.
_SUBCOMMANDS = {
    "fig4": ("drift field of two competing windows", None, _run_fig4),
    "fig5": ("density of (cwnd1, cwnd2)", _add_fig5_args, _run_fig5),
    **{name: (help_text, partial(_add_tree_args, name=name),
              _run_tree_figure) for name, help_text in _FIGURE_HELP.items()},
    "paper": ("figures over 5 seeds: mean ± 95 %% CI, checks",
              _add_paper_args, _run_paper),
    "sweep": ("fairness vs receiver count", _add_sweep_args, _run_sweep),
    "scenarios": ("generated workloads: topologies, mice, churn",
                  _add_scenarios_args, _run_scenarios),
    "fluid": ("mean-field fluid backend: crossval and scaling",
              _add_fluid_args, _run_fluid),
    "resume": ("restore a snapshot file and run it to completion",
               _add_resume_args, _run_resume),
    "fork": ("branch N reseeded variant futures from one snapshot",
             _add_fork_args, _run_fork),
}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The full parser, or one with the options of ``only`` alone."""
    parser = argparse.ArgumentParser(
        prog="repro-rla",
        description="Reproduce figures from Wang & Schwartz, SIGCOMM 1998.",
    )
    sub = parser.add_subparsers(dest="figure", required=True)
    for name, (help_text, add_args, run) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if add_args is not None and only in (None, name):
            add_args(p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand is always the first word; anything else (-h, a typo)
    # gets names and help lines alone: option adders import (choices=)
    only = argv[0] if argv and argv[0] in _SUBCOMMANDS else ""
    args = build_parser(only).parse_args(argv)
    try:
        return args.run(args) or 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _describe_report(report: Any) -> str:
    """One-line human summary of a resumed run's report."""
    if isinstance(report, dict) and "rla_pps" in report:
        return (f"scenario {report.get('scenario')}: "
                f"rla {report['rla_pps']:.2f} pkt/s, "
                f"wtcp {report['wtcp_pps']:.2f} pkt/s, "
                f"jain {report['jain']:.3f}")
    stats = getattr(report, "stats", None)
    if isinstance(stats, dict):
        return (f"{type(report).__name__}: {stats.get('events', 0):.0f} "
                f"events to t={stats.get('sim_time', 0):g}"
                + (f", violations {stats['violations']:.0f}"
                   if "violations" in stats else ""))
    return repr(report)


def _open_out(path: Optional[str]) -> ContextManager[Optional[IO[bytes]]]:
    """Open ``--out`` before anything is simulated: an unwritable path
    must cost an error line, not the finished branches."""
    if path is None:
        return nullcontext()
    try:
        return open(path, "wb")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _pickle_out(handle: Optional[IO[bytes]], payload: Any) -> None:
    if handle is None:
        return
    import pickle

    # Default protocol, not HIGHEST: the byte-identity oracle and the
    # checkpoint smoke diff these files against pickle.dumps(report),
    # which pickles at DEFAULT_PROTOCOL — a protocol mismatch would make
    # every comparison fail on the version byte alone.
    pickle.dump(payload, handle)
    print(f"report pickled to {handle.name}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
