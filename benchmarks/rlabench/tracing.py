"""The traced run: one in-process pass per workload, spans and counts.

Spans are recorded from *this* file, round the calls into each layer:
for the length of a pass the stage functions the packages export
(``build_*_world``, ``Simulator.run``, ``finalize_*_world``, ``run_specs``,
``ResultCache.get/put``, ``fluid.integrate``, the table formatters) are
swapped for wrappers that open a span, and ``repro.cli.main(argv)`` is
called with the same argv the timed passes spawn.  Nothing under
``src/repro`` is edited; spans inside the program are a later change.

Three passes, all in-process:

1. a *count* pass — serial (``--workers 1``), with a chained
   ``Simulator.event_hook`` attributing host time to each event's root
   class and every Simulator / Link / sender / cache object tracked, so
   every count is exact and repeats exactly;
2. an untraced pass and 3. the traced pass, both as the CLI would run them
   (pool workers included; spans of forked workers are not visible) —
   their ratio is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import pickle
import shutil
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from checks import Checks, stable_text
from workloads import Workload

#: Event root classes of ``sim.root.<class>.*``.
ROOT_CLASSES = ("link_tx", "link_rx", "tcp_timer", "rla_timer", "traffic",
                "churn", "other")

#: (owner, attribute, span name): calls wrapped for the traced pass.  The
#: owner is the namespace the *caller* looks the function up in.
STAGES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "fig7_table", "cli.render"),
    ("repro.cli", "fig9_table", "cli.render"),
    ("repro.cli", "fig10_table", "cli.render"),
    ("repro.experiments.sweeps", "format_sweep", "cli.render"),
    ("repro.scenarios", "format_scenarios", "cli.render"),
    ("repro.scenarios.grid", "format_grid", "cli.render"),
    ("repro.fluid.runner", "format_fluid", "cli.render"),
    ("repro.experiments.population", "format_population", "cli.render"),
    ("repro.runtime", "metrics_table", "cli.render"),
    ("repro.experiments.runner", "build_tree_world", "topology.build"),
    ("repro.experiments.sweeps", "build_restricted", "topology.build"),
    ("repro.scenarios.runner", "build_scenario_world", "scenarios.build"),
    ("repro.sim.engine:Simulator", "run", "sim.advance"),
    ("repro.experiments.runner", "finalize_tree_world",
     "experiments.finalize"),
    ("repro.scenarios.runner", "finalize_scenario_world",
     "experiments.finalize"),
    ("repro.experiments.sweeps", "run_symmetric_spec", "experiments.point"),
    ("repro.fluid.adapters", "run_symmetric_fluid_spec", "experiments.point"),
    ("repro.runtime", "run_specs", "runtime.run_specs"),
    ("repro.runtime.cache:ResultCache", "get", "runtime.cache.get"),
    ("repro.runtime.cache:ResultCache", "put", "runtime.cache.put"),
    ("repro.runtime.cache", "code_version", "runtime.code_version"),
    ("repro.fluid.runner", "run_fluid", "fluid.run"),
    ("repro.fluid.runner", "integrate", "fluid.integrate"),
    ("repro.fluid.runner", "reynier_check", "fluid.equilibrium"),
)

#: Per-layer seconds that are the summed duration of one kind of span.
SPAN_TOTALS = {
    "cli.render_s": "cli.render",
    "topology.build_s": "topology.build",
    "scenarios.build_s": "scenarios.build",
    "sim.advance_s": "sim.advance",
    "experiments.finalize_s": "experiments.finalize",
    "fluid.integrate_s": "fluid.integrate",
    "fluid.equilibrium_s": "fluid.equilibrium",
}

#: Classes whose instances the count pass keeps, to read their counters.
TRACKED = {
    "sim": "repro.sim.engine:Simulator",
    "link": "repro.net.link:Link",
    "tcp": "repro.tcp.sender:TcpSender",
    "rla": "repro.rla.sender:RLASender",
    "monitor": "repro.audit.invariants:InvariantMonitor",
    "cache": "repro.runtime.cache:ResultCache",
}


def _resolve(path: str) -> Any:
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class Tracer:
    """In-memory span recorder; written out when the benchmark ends.

    A span is ``[name, start, end, parent, run]``: ``parent`` is the index
    of the span that caused it (``None`` for the pass itself) and ``run``
    the index of the command being served, shared by all its spans.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.run = -1
        #: span name -> values the wrapped calls returned
        self.results: Dict[str, List[Any]] = {}

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = func(*args, **kwargs)
            self.results.setdefault(name, []).append(result)
            return result
        return traced

    # -- analysis --------------------------------------------------------
    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def by_layer(self) -> Dict[str, float]:
        """Self time summed per layer (the span name's first component)."""
        layers: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = span[0].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers


@contextlib.contextmanager
def patched(swaps: List[Tuple[Any, str, Any]]) -> Iterator[None]:
    """Set ``owner.attr = new`` for each swap; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in swaps]
    try:
        for owner, attr, new in swaps:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def stage_swaps(
    tracer: Tracer,
    inside: Optional[Dict[str, Callable[[Any], Any]]] = None,
) -> List[Tuple[Any, str, Any]]:
    """The swaps that put a span round every stage in :data:`STAGES`.

    ``inside`` maps a span name to a decorator applied *under* the span,
    so the span covers whatever the decorator adds.
    """
    swaps = []
    for owner_path, attr, name in STAGES:
        owner = _resolve(owner_path)
        func = getattr(owner, attr)
        if inside and name in inside:
            func = inside[name](func)
        swaps.append((owner, attr, tracer.wrap(func, name)))
    return swaps


class RootClock:
    """Chained ``Simulator.event_hook``: events and host time per root class.

    The gap between two consecutive hook calls is the previous event's
    handler (plus the engine's pop), so it is booked to that event's
    class.  The hook roughly doubles the cost of an event, which is why
    shares come from a pass of their own.
    """

    def __init__(self) -> None:
        self.events: Counter = Counter()
        self.seconds: Counter = Counter()
        self._open: Optional[str] = None
        self._since = 0.0
        process = importlib.import_module("repro.sim.process")
        self._timers = (process.Timer, process.PeriodicProcess)

    def classify(self, event: Any) -> str:
        name = event.name or ""
        if name.endswith(".tx"):
            return "link_tx"
        if name.endswith(".rx"):
            return "link_rx"
        owner = getattr(event.callback, "__self__", None)
        if isinstance(owner, self._timers):
            owner = getattr(owner.callback, "__self__", None)
        module = type(owner).__module__
        if module.startswith("repro.tcp"):
            return "tcp_timer"
        if module.startswith("repro.rla"):
            return "rla_timer"
        if module.startswith("repro.scenarios.churn"):
            return "churn"
        if module.startswith(("repro.scenarios.traffic", "repro.net.apps")):
            return "traffic"
        return "other"

    def close(self) -> None:
        if self._open is not None:
            self.seconds[self._open] += time.perf_counter() - self._since
            self._open = None

    def hooked_run(self, run: Callable[..., int]) -> Callable[..., int]:
        def hooked(sim: Any, *args: Any, **kwargs: Any) -> int:
            inner = sim.event_hook

            def hook(event: Any) -> None:
                self.close()
                if inner is not None:
                    inner(event)
                kind = self.classify(event)
                self.events[kind] += 1
                self._open = kind
                self._since = time.perf_counter()

            sim.event_hook = hook
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.close()
                sim.event_hook = inner
        return hooked


def _tracking_init(cls: type, bucket: List[Any]) -> Callable[..., None]:
    original = cls.__init__

    def init(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        bucket.append(self)
    return init


def _serial(argv: List[str]) -> List[str]:
    """``argv`` with ``--workers N`` forced to 1 (same results, in-process)."""
    out = list(argv)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return out


def run_commands(workload: Workload, order: List[int], seed: int,
                 cache_dir: Path, tracer: Optional[Tracer] = None,
                 serial: bool = False) -> Tuple[float, Dict[int, str], int]:
    """One in-process pass; returns (seconds, stdout per command, failures)."""
    cli = importlib.import_module("repro.cli")
    texts: Dict[int, str] = {}
    failures = 0
    outer = tracer.span("pass") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with outer:
        for index in order:
            argv = workload.commands[index].argv(seed, str(cache_dir))
            if serial:
                argv = _serial(argv)
            if tracer:
                tracer.run = index
            inner = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            buffer = io.StringIO()
            with inner, contextlib.redirect_stdout(buffer):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code
            failures += code != 0
            texts[index] = buffer.getvalue()
    return time.perf_counter() - start, texts, failures


def _bound_ok_share(tracer: Tracer) -> float:
    """Rows whose essential-fairness verdict holds / rows that have one."""
    verdicts: List[Any] = [row["fair"] for row in
                           tracer.results.get("experiments.point", ())]
    verdicts += [row.get("bound_ok")
                 for row in tracer.results.get("fluid.run", ())]
    for row in tracer.results.get("experiments.finalize", ()):
        if isinstance(row, dict):  # scenario rows; tree results carry none
            verdicts += [cohort.get("bound_ok")
                         for cohort in row.get("cohorts", {}).values()]
    verdicts = [v for v in verdicts if v is not None]
    return sum(map(bool, verdicts)) / len(verdicts) if verdicts else 0.0


def count_pass(workload: Workload, order: List[int], seed: int,
               cache_dir: Path, checks: Checks) -> Dict[str, float]:
    """The serial, hooked pass: every exact count, and the root shares."""
    tracer = Tracer()
    clock = RootClock()
    buckets: Dict[str, List[Any]] = {key: [] for key in TRACKED}
    swaps = stage_swaps(tracer, inside={"sim.advance": clock.hooked_run})
    for key, path in TRACKED.items():
        cls = _resolve(path)
        swaps.append((cls, "__init__", _tracking_init(cls, buckets[key])))
    with patched(swaps):
        _, _, failures = run_commands(workload, order, seed, cache_dir,
                                      tracer, serial=True)
    checks.expect(failures == 0,
                  f"{workload.name} count pass: {failures} commands failed")

    outcomes = [o for batch in tracer.results.get("runtime.run_specs", ())
                for o in batch]
    hooked_s = sum(clock.seconds.values())
    gateways = [link.gateway for link in buckets["link"]]
    counts: Dict[str, float] = {
        "sim.events": sum(sim.events_executed for sim in buckets["sim"]),
        "scenarios.worlds": tracer.count("scenarios.build"),
        "net.packets": sum(link.packets_sent for link in buckets["link"]),
        "net.drops": sum(gw.dropped for gw in gateways),
        "net.peak_queue": max((gw.peak_depth for gw in gateways), default=0),
        "tcp.retransmits": sum(s.retransmits for s in buckets["tcp"]),
        "tcp.window_cuts": sum(s.window_cuts for s in buckets["tcp"]),
        "rla.signals": sum(s.congestion_signals for s in buckets["rla"]),
        "rla.window_cuts": sum(s.window_cuts for s in buckets["rla"]),
        "audit.checks": sum(m.checks_run for m in buckets["monitor"]),
        "audit.violations": sum(m.violation_count for m in buckets["monitor"]),
        "runtime.retries": sum(max(o.attempts - 1, 0) for o in outcomes),
        "runtime.result_pickle_bytes": sum(
            len(pickle.dumps(o.result)) for o in outcomes if not o.cached),
        "runtime.cache.hits": sum(c.hits for c in buckets["cache"]),
        "runtime.cache.misses": sum(c.misses for c in buckets["cache"]),
        "runtime.cache.entry_bytes": sum(
            path.stat().st_size for path in cache_dir.glob("*.pkl")),
        "fluid.steps": sum(r.steps for r in
                           tracer.results.get("fluid.integrate", ())),
        "experiments.bound_ok_share": _bound_ok_share(tracer),
    }
    counts["rla.listen_share"] = (
        counts["rla.window_cuts"] / counts["rla.signals"]
        if counts["rla.signals"] else 0.0)
    for kind in ROOT_CLASSES:
        counts[f"sim.root.{kind}.events"] = clock.events[kind]
        counts[f"sim.root.{kind}.share"] = (
            clock.seconds[kind] / hooked_s if hooked_s else 0.0)
    checks.expect(sum(clock.events.values()) == counts["sim.events"],
                  f"{workload.name}: event hook saw "
                  f"{sum(clock.events.values())} events, simulators report "
                  f"{counts['sim.events']}")
    return counts


def traced_run(workload: Workload, seed: int, cache_dir: Path,
               checks: Checks) -> Tuple[Dict[str, float], Tracer]:
    """Count pass, untraced pass, traced pass; per-layer values and spans."""
    order = workload.ordered(seed)

    def reset_cache() -> None:
        if not workload.warm_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
        elif not cache_dir.exists():  # what set-up does in a timed run
            run_commands(workload, order, seed, cache_dir)

    reset_cache()
    values = count_pass(workload, order, seed, cache_dir, checks)

    reset_cache()
    untraced_s, untraced_texts, _ = run_commands(workload, order, seed,
                                                 cache_dir)
    reset_cache()
    tracer = Tracer()
    with patched(stage_swaps(tracer)):
        traced_s, traced_texts, failures = run_commands(
            workload, order, seed, cache_dir, tracer)
    checks.expect(failures == 0,
                  f"{workload.name} traced pass: {failures} commands failed")
    checks.expect({i: stable_text(t) for i, t in traced_texts.items()}
                  == {i: stable_text(t) for i, t in untraced_texts.items()},
                  f"{workload.name}: tracing changed what the CLI printed")

    # -- the trace must be well formed and account for the pass -----------
    own = tracer.self_times()
    checks.expect(all(s[3] is None or 0 <= s[3] < i
                      for i, s in enumerate(tracer.spans)),
                  f"{workload.name}: span with an invalid parent")
    checks.expect(all(t >= -1e-9 for t in own),
                  f"{workload.name}: negative self time")
    staged = sum(t for s, t in zip(tracer.spans, own) if s[0] != "pass")
    checks.expect(abs(staged - traced_s) <= 0.05 * traced_s,
                  f"{workload.name}: stage self times sum to {staged:.4f} s "
                  f"of a {traced_s:.4f} s traced pass")

    # -- pool accounting: makespan against the work the workers report ----
    pool_s = tracer.total("runtime.run_specs")
    run_s = sum(outcome.metrics.wall_time_s
                for batch in tracer.results.get("runtime.run_specs", ())
                for outcome in batch if not outcome.cached)
    workers = 2 if any("--workers" in c.args for c in workload.commands) else 1
    values.update({metric: tracer.total(span)
                   for metric, span in SPAN_TOTALS.items()})
    values.update({
        "runtime.overhead_s": pool_s - run_s / workers,
        "runtime.efficiency": run_s / (workers * pool_s) if pool_s else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s,
    })
    return values, tracer


def layer_table(tracer: Tracer) -> str:
    """Per-layer self time of the traced pass, largest first."""
    layers = tracer.by_layer()
    harness_s = layers.pop("pass", 0.0)
    total = sum(layers.values()) + harness_s
    lines = [f"  {'layer':<14}{'self s':>10}{'share':>8}"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<14}{seconds:>10.4f}{seconds / total:>8.1%}")
    lines.append(f"  {'(harness)':<14}{harness_s:>10.4f}{harness_s / total:>8.1%}")
    return "\n".join(lines)
