"""One run lifecycle: build -> advance -> finalize, for every packet backend.

Every table of the paper's §5 is one procedure applied to a different
network: build it, start the traffic, discard a warm-up, measure, report.
The tree experiments (:mod:`repro.experiments.runner`), the generated
scenarios (:mod:`repro.scenarios.runner`) and the figure 1 runs
(:mod:`repro.experiments.sweeps`) each supply what is their own — a
``build_*_world(spec)`` function, a ``finalize_*_world(world)`` function
and a :class:`World` subclass — and share everything else here: crossing
the warm-up boundary exactly once, the end-of-run audit, mid-run
snapshots, resuming a restored world, and the one decision between a
plain in-process loop and the :mod:`repro.runtime` services.

A run is its spec.  Every runnable spec dataclass — those of the three
packet backends, :class:`repro.fluid.spec.FluidSpec`, the fluid sweep
point and :class:`repro.fluid.crossval.CrossvalCase` — says how it runs
in three class attributes (not fields: they neither pickle nor enter a
cache key):

``runner``
    ``"module:function"`` of the function that takes the spec and returns
    its report, looked up by name every time it is called;
``checkpointable``
    whether that function also takes ``checkpoint_at, checkpoint_path``
    (see :func:`run_world`);
``run_label()``
    the run's name in ``--metrics`` tables.

:func:`run_many` needs nothing else to run a list of mixed spec types,
and :func:`run_spec` is the one entrypoint a pool worker resolves.

A backend must reach its ``build_*``/``finalize_*`` functions through its
own module globals *at call time* (``run_world(build_tree_world(spec))``;
``def finalize(self): return finalize_tree_world(self)``), never through a
function object captured at import time: ``benchmarks/rlabench`` times a
run by swapping those module attributes, and a captured reference still
runs but is invisible to it.

This module imports :mod:`repro.audit`, :mod:`repro.checkpoint` and
:mod:`repro.runtime` only inside the functions that need them, so a plain
serial run loads none of the three.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import ConfigurationError

#: The resume entrypoint recorded in every snapshot, whatever the backend.
RESUME_ENTRYPOINT = "repro.lifecycle:finish_world"

#: The entrypoint of every pool job, whatever the type of its spec.
SPEC_ENTRYPOINT = "repro.lifecycle:run_spec"


class World:
    """A live (or restored) run between build and report.

    The unit :mod:`repro.checkpoint` snapshots: the whole object graph
    hanging off a world — simulator, network, flows, sessions, audit
    ledgers — pickles as one, so shared references survive restore.

    Subclasses are dataclasses declaring at least ``spec`` (with
    ``warmup`` and ``duration``), ``sim``, ``gateways``, ``auditor = None``
    and ``marked = False`` (true once the warm-up boundary has been
    crossed and counters marked), and five hooks:

    ``marks()``
        flows and sessions to ``mark()`` at the warm-up boundary, in order;
    ``tcp_senders()``, ``rla_senders()``
        the senders the end-of-run audit checks, in order;
    ``label()``
        what a snapshot of this world is called (before ``@t=...``);
    ``finalize()``
        the report of a fully advanced world.
    """

    @property
    def end_time(self) -> float:
        """Absolute sim-time at which the measurement window closes."""
        return self.spec.warmup + self.spec.duration

    def rearm(self) -> None:
        """Re-install process-global audit state after a restore."""
        if self.auditor is not None:
            self.auditor.rearm()

    def disarm(self) -> None:
        """Release process-global audit state (safe to call when unaudited)."""
        if self.auditor is not None:
            self.auditor.disarm()

    def stats(self) -> Dict[str, float]:
        """Engine statistics for the runtime layer's metric tables.

        Peak occupancy comes from the gateways' native counters
        (``Gateway.peak_depth``), so no per-enqueue hook is needed and the
        enqueue fast path stays hook-free for un-audited runs.
        """
        return {
            "events": self.sim.events_executed,
            "drops": sum(gateway.dropped for gateway in self.gateways),
            "peak_queue_depth": max(gateway.peak_depth
                                    for gateway in self.gateways),
            "sim_time": self.sim.now,
        }

    def audit(self, stats: Dict[str, float]) -> None:
        """End-of-run audit: check every sender, verify conservation.

        Raises :class:`~repro.audit.InvariantViolation` on any
        inconsistency; otherwise adds the check and violation counts to
        ``stats``.  Does nothing on an unaudited world.
        """
        if self.auditor is None:
            return
        monitor = self.auditor.monitor
        for sender in self.tcp_senders():
            monitor.check_tcp(sender)
        for sender in self.rla_senders():
            monitor.check_rla(sender)
        self.auditor.verify()
        stats["audit_checks"] = monitor.checks_run
        stats["violations"] = monitor.violation_count


@contextmanager
def arming(audited: bool, sim: Any, net: Any) -> Iterator[Tuple[Any, Any]]:
    """Arm the audit (if ``audited``) around the rest of a world's build.

    Yields ``(auditor, monitor)``, both ``None`` when unaudited.  Arming
    installs the process-global packet-creation hook: it is released here
    if the build fails, and otherwise stays installed until whoever holds
    the finished world calls :meth:`World.disarm` (:func:`run_world` does,
    in every outcome).
    """
    if not audited:
        yield None, None
        return
    from .audit import arm

    auditor = arm(sim, net)
    try:
        yield auditor, auditor.monitor
    except BaseException:
        auditor.disarm()
        raise


def advance_world(world: World, until: float) -> None:
    """Run the world forward to absolute sim-time ``until``.

    Handles the warmup boundary exactly like the straight-through run:
    events up to the warmup horizon execute first, throughput counters are
    marked once at the boundary, then measurement-window events run.
    Splitting the run at any interior time (including exactly at the
    boundary) executes the identical event sequence — that equivalence is
    what makes interior-time snapshots byte-identical to straight-through
    runs.
    """
    warmup = world.spec.warmup
    if until > world.end_time:
        raise ConfigurationError(
            f"cannot advance to t={until}: run ends at t={world.end_time}"
        )
    if not world.marked:
        world.sim.run(until=min(until, warmup))
        if until >= warmup:
            for measured in world.marks():
                measured.mark()
            world.marked = True
    if until > warmup:
        world.sim.run(until=until)


def snapshot_world(world: World, at: Optional[float] = None):
    """Advance to ``at`` (if given) and capture a resumable snapshot."""
    from .checkpoint import capture

    if at is not None:
        if not 0.0 <= at < world.end_time:
            raise ConfigurationError(
                f"checkpoint time {at} outside [0, {world.end_time})"
            )
        advance_world(world, at)
    return capture(
        world,
        label=f"{world.label()}@t={world.sim.now:g}",
        resume=RESUME_ENTRYPOINT,
    )


def run_world(
    world: World,
    checkpoint_at: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
) -> Any:
    """Warm up, measure and report a built world, then disarm it.

    With ``checkpoint_at`` set, the run pauses at that interior sim-time,
    captures a :class:`repro.checkpoint.Snapshot` (written to
    ``checkpoint_path`` when given), and continues — the returned report
    is identical to an uncheckpointed run.
    """
    try:
        if checkpoint_at is not None:
            snapshot = snapshot_world(world, at=checkpoint_at)
            if checkpoint_path is not None:
                from .checkpoint import save

                save(snapshot, checkpoint_path)
        advance_world(world, world.end_time)
        return world.finalize()
    finally:
        world.disarm()


def finish_world(world: World) -> Any:
    """Run a restored world to the end and report: the resume entrypoint."""
    return run_world(world)


def runner_of(spec: Any) -> Callable[..., Any]:
    """The function ``spec.runner`` names, as its module holds it right now."""
    module_name, _, name = spec.runner.partition(":")
    return getattr(importlib.import_module(module_name), name)


def run_spec(
    params: Dict[str, Any],
    checkpoint_at: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
) -> Any:
    """:mod:`repro.runtime` entrypoint: ``params = {"spec": spec}``."""
    spec = params["spec"]
    if checkpoint_at is None:
        return runner_of(spec)(spec)
    return runner_of(spec)(spec, checkpoint_at, checkpoint_path)


def runspec(spec: Any):
    """``spec`` as a content-addressed :class:`repro.runtime.RunSpec`."""
    from .runtime import RunSpec

    return RunSpec(SPEC_ENTRYPOINT, {"spec": spec}, label=spec.run_label())


def run_many(
    specs: Iterable[Any],
    workers: Optional[int] = None,
    cache=None,
    outcomes: Optional[List[Any]] = None,
    checkpoint_at: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
) -> List[Any]:
    """The report of every spec, in order; the specs may differ in type.

    The one serial-or-fan-out decision.  When none of the runtime's
    services is asked for this is a plain in-process loop: exceptions
    propagate as raised and :mod:`repro.runtime` is not imported.
    Otherwise the batch goes to :func:`repro.runtime.run_specs` as one
    list of :func:`runspec` jobs — ``workers`` processes, the on-disk
    ``cache``, a resumable snapshot of every non-cached run at
    ``checkpoint_at`` (into ``checkpoint_dir`` or the cache directory) —
    with byte-identical results, and ``outcomes``, if given, is extended
    with the :class:`~repro.runtime.RunOutcome` records.  A batch holding
    a spec that cannot checkpoint is refused before anything runs.
    """
    specs = list(specs)
    if checkpoint_at is not None:
        for spec in specs:
            if not spec.checkpointable:
                raise ConfigurationError(
                    f"{spec.run_label()}: runner {spec.runner!r} does not "
                    f"support mid-run checkpoints: it takes no "
                    f"checkpoint_at/checkpoint_path"
                )
    if workers is None and cache is None and checkpoint_at is None:
        return [runner_of(spec)(spec) for spec in specs]
    from .runtime import run_specs

    outs = run_specs([runspec(spec) for spec in specs], workers=workers,
                     cache=cache, checkpoint_at=checkpoint_at,
                     checkpoint_dir=checkpoint_dir)
    if outcomes is not None:
        outcomes.extend(outs)
    return [out.result for out in outs]
