"""An option exists only while a caller outside ``tests/`` turns it.

Config fields: an AST walk over ``src/``, ``benchmarks/`` and
``examples/`` collects every keyword (or positional argument) passed to
one of :data:`CONFIGS`, and every keyword of a ``replace`` call,
``dataclasses.replace(obj, ...)`` or ``spec.replace(...)`` alike (the walk
cannot type its target, so it counts for every class).  A dataclass field
that nothing there sets is a constant dressed as a knob: make it a class
attribute or a module constant, or list it in :data:`ALLOWED` with the
reference test that sets it.

Parameters: the same rule holds for every defaulted parameter of a
function, method or ``__init__`` in ``src/repro``.  A call there must pass
it, by keyword or by position, matched on the callable's name (a class
name for ``__init__``); otherwise it is deleted with the code only its
non-default values reach, or listed in :data:`PARAMETERS_ALLOWED`.  The
walk skips a callable whose call sites it cannot read: one no call there
reaches at all (only tests drive it; ``tests/test_reachability.py`` asks
whether it stays), one whose name is also used as a value (a callback, a
``render=`` table entry), one a ``"repro.x:y"`` entrypoint string in
``src/`` names, and one ever called with ``*``/``**``.  Skipping can miss
a parameter but never flags one wrongly.
"""

import ast
import re
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import pytest

from repro.experiments.runner import TreeExperimentSpec
from repro.experiments.sweeps import RestrictedRunSpec
from repro.fluid.crossval import CrossvalCase
from repro.fluid.spec import BottleneckSpec, FluidSpec, RlaCohortSpec, TcpCohortSpec
from repro.net.network import GatewayFactory
from repro.rla.config import RLAConfig
from repro.scenarios.churn import ChurnSpec
from repro.scenarios.grid import GridSpec
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.topologies import (
    JitteredTreeTopology,
    RttCohortTopology,
    TransitStubTopology,
    WaxmanTopology,
)
from repro.scenarios.traffic import BackgroundTraffic, PacketSizeMix
from repro.tcp.config import TcpConfig
from repro.topology.dumbbell import DumbbellSpec
from repro.topology.restricted import RestrictedSpec

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "examples")
#: Every spec class a run is built from.
CONFIGS = (
    RLAConfig, TcpConfig, RestrictedSpec, RestrictedRunSpec, DumbbellSpec,
    WaxmanTopology, TransitStubTopology, JitteredTreeTopology,
    RttCohortTopology, PacketSizeMix, BackgroundTraffic, ChurnSpec,
    ScenarioSpec, GridSpec, TreeExperimentSpec,
    FluidSpec, BottleneckSpec, TcpCohortSpec, RlaCohortSpec, CrossvalCase,
    GatewayFactory,
)
NAMES = {cls.__name__: [f.name for f in fields(cls)] for cls in CONFIGS}

#: ``(class name, field)`` -> the reference test that sets it, by path.
ALLOWED = {
    ("WaxmanTopology", "alpha"):
        "the dense-graph case of tests/net/test_routing_oracle.py",
    ("RttCohortTopology", "fast_hosts"):
        "the 256-host case of tests/net/test_routing_oracle.py",
    ("RttCohortTopology", "slow_hosts"):
        "the 256-host case of tests/net/test_routing_oracle.py",
    ("BottleneckSpec", "max_p"):
        "McDonald & Reynier's RED regime, drawn by the hypothesis strategy "
        "of tests/fluid/test_integrator_oracle.py",
    ("BottleneckSpec", "loss_p"):
        "the fixed-loss discipline, drawn by the hypothesis strategy of "
        "tests/fluid/test_integrator_oracle.py",
    ("FluidSpec", "rla_rtt_factor"):
        "equation 5's (RTT, 2 RTT) band, drawn by the hypothesis strategy "
        "of tests/fluid/test_integrator_oracle.py",
}


#: ``(callable name, parameter)`` -> the reference test that sets it.
PARAMETERS_ALLOWED = {
    ("CoDelQueue", "target"):
        "RFC 8289's sojourn target, varied by tests/net/test_serve_oracle.py",
    ("CoDelQueue", "interval"):
        "RFC 8289's interval, varied by tests/net/test_serve_oracle.py",
    ("PIEQueue", "target"):
        "RFC 8033's latency target, varied by tests/net/test_serve_oracle.py",
    ("PIEQueue", "t_update"):
        "RFC 8033's update period, varied by tests/net/test_serve_oracle.py",
    ("InvariantMonitor", "strict"):
        "the collecting mode, built by tests/audit/test_invariants.py (the "
        "diet oracle's fault injection flips the same flag on a monitor)",
    ("ResultCache", "code"):
        "a pinned code version, set by the cache-invalidation cases of "
        "tests/runtime/test_cache.py",
}

#: Not walked: item 12 of ROADMAP.md decides ``repro.baselines``, and
#: ``repro.runtime._testing`` holds the executor tests' entrypoints.
UNWALKED = ("baselines/", "runtime/_testing.py")
#: A ``"repro.module:name"`` string: an entrypoint a runner resolves.
ENTRYPOINT = re.compile(r"repro(?:\.\w+)+:(\w+)")


def _set_in(tree):
    """``(class name, field)`` pairs the calls in one parsed module set."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = getattr(func, "id", None) or getattr(func, "attr", None)
        keywords = [kw.arg for kw in node.keywords if kw.arg]
        if called == "replace":
            found.update((cls, kw) for cls in NAMES for kw in keywords)
        elif called in NAMES:
            positional = NAMES[called][:len(node.args)]
            found.update((called, kw) for kw in keywords + positional)
    return found


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _set_fields():
    """``(class name, field)`` pairs some non-test caller sets."""
    return set().union(*(_set_in(_parse(path)) for top in CALLERS
                         for path in (ROOT / top).rglob("*.py")))


def _signatures():
    """Callable name -> ``(positional names, defaulted names)`` of each
    ``def`` under ``src/repro`` by that name (``self``/``cls`` dropped)."""
    found = defaultdict(list)
    src = ROOT / "src" / "repro"

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [arg.arg for arg in args.posonlyargs + args.args]
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list)
                if owner and not static:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [arg.arg for arg, default
                              in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                name = owner if owner and node.name == "__init__" else node.name
                found[name].append((positional, defaulted))

    for path in sorted(src.rglob("*.py")):
        if not path.relative_to(src).as_posix().startswith(UNWALKED):
            visit(_parse(path).body, None)
    return found


def _calls_in(tree, signatures, in_src):
    """What one module's code says about the callables in ``signatures``:
    ``(passed, called, values, starred, entrypoints)``."""
    passed, called, values, starred, entrypoints = (set() for _ in range(5))
    skipped, bound = set(), set()  # call targets, annotations, lazy exports
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skipped.add(id(node.func))
            name = getattr(node.func, "id", None) or getattr(
                node.func, "attr", None)
            if name == "lazy_exports":  # re-exports, not entrypoints
                skipped.update(id(sub) for sub in ast.walk(node))
            if name not in signatures:
                continue
            called.add(name)
            if (any(isinstance(arg, ast.Starred) for arg in node.args)
                    or any(kw.arg is None for kw in node.keywords)):
                starred.add(name)
            passed.update((name, kw.arg) for kw in node.keywords)
            for positional, _ in signatures[name]:
                passed.update((name, p) for p in positional[:len(node.args)])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        for field in ("annotation", "returns"):
            if getattr(node, field, None) is not None:
                skipped.update(id(sub) for sub in ast.walk(getattr(node, field)))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in bound:  # the callable itself, not a local
                values.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            values.add(node.attr)
        elif (in_src and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            entrypoints.update(ENTRYPOINT.findall(node.value))
    return passed, called, values, starred, entrypoints


def _unpassed(signatures, modules):
    """``(callable, parameter)`` pairs with a default no call passes;
    ``modules`` is ``(tree, in_src)`` pairs."""
    facts = [set() for _ in range(5)]
    for tree, in_src in modules:
        for known, new in zip(facts, _calls_in(tree, signatures, in_src)):
            known |= new
    passed, called, values, starred, entrypoints = facts
    unreadable = values | starred | entrypoints
    return {(name, parameter)
            for name, variants in signatures.items()
            if name in called and name not in unreadable
            for _, defaulted in variants for parameter in defaulted
            if (name, parameter) not in passed}


def test_every_defaulted_parameter_is_passed_by_a_caller():
    modules = [(_parse(path), top == "src") for top in CALLERS
               for path in (ROOT / top).rglob("*.py")]
    unpassed = _unpassed(_signatures(), modules)
    unjustified = sorted(unpassed - set(PARAMETERS_ALLOWED))
    assert not unjustified, (
        f"no caller outside tests/ passes these {len(unjustified)}: delete "
        "them\n" + "\n".join(f"{name}({param}=)"
                              for name, param in unjustified))
    assert sorted(set(PARAMETERS_ALLOWED) - unpassed) == [], (
        "stale PARAMETERS_ALLOWED entry")


def test_parameter_walk_reads_call_sites_and_skips_unreadable_ones():
    signatures = {name: [(["a", "b"], ["b"])] for name in
                  ("f", "g", "callback", "spread", "entry", "untouched")}
    source = """
from m import callback
f(1, 2)
g(a=1)
obj.callback(1)
register(callback)
spread(*args)
entry(1)
RUNNER = "repro.x:entry"
"""
    unpassed = _unpassed(signatures, [(ast.parse(source), True)])
    assert unpassed == {("g", "b")}


def test_every_config_field_is_set_by_a_caller():
    declared = {(cls.__name__, f.name) for cls in CONFIGS for f in fields(cls)}
    unset = declared - _set_fields()
    assert sorted(unset - set(ALLOWED)) == [], (
        "no caller outside tests/ sets these: make them constants")
    assert sorted(set(ALLOWED) - unset) == [], "stale ALLOWED entry"


def _reference_test(reason):
    paths = re.findall(r"tests/[\w/]+\.py", reason)
    assert len(paths) == 1, reason
    path = ROOT / paths[0]
    assert path.is_file(), paths[0]
    return path


@pytest.mark.parametrize("allowed", [ALLOWED, PARAMETERS_ALLOWED],
                         ids=["fields", "parameters"])
def test_every_allowed_option_is_named_by_the_test_it_cites(allowed):
    """Deleting the reference case retires its exemption."""
    for (owner, name), reason in allowed.items():
        text = _reference_test(reason).read_text(encoding="utf-8")
        assert re.search(rf"\b{name}\b", text), (owner, name, reason)


def test_every_allowed_field_is_set_by_the_test_it_names():
    for (cls, name), reason in ALLOWED.items():
        path = _reference_test(reason)
        assert (cls, name) in _set_in(_parse(path)), (cls, name, path)


def test_walk_credits_calls_positional_arguments_and_both_replaces():
    source = """
WaxmanTopology(30, alpha=0.7)
dataclasses.replace(spec, n=5)
spec.replace(warmup=2.0)
text.replace("a", "b")
"""
    found = _set_in(ast.parse(source))
    assert {("WaxmanTopology", "n"), ("WaxmanTopology", "alpha"),
            ("FluidSpec", "warmup"), ("ScenarioSpec", "warmup")} <= found
    assert not {pair for pair in found if pair[1] in ("a", "b")}
