"""A config field exists only while a caller outside ``tests/`` sets it.

An AST walk over ``src/``, ``benchmarks/`` and ``examples/`` collects every
keyword (or positional argument) passed to one of :data:`CONFIGS`, and
every keyword of a ``replace`` call, ``dataclasses.replace(obj, ...)`` or
``spec.replace(...)`` alike (the walk cannot type its target, so it counts
for every class).  A dataclass field that nothing there sets is a constant
dressed as a knob: make it a class attribute or a module constant, or list
it in :data:`ALLOWED` with the reference test that sets it.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

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


def test_every_config_field_is_set_by_a_caller():
    declared = {(cls.__name__, f.name) for cls in CONFIGS for f in fields(cls)}
    unset = declared - _set_fields()
    assert sorted(unset - set(ALLOWED)) == [], (
        "no caller outside tests/ sets these: make them constants")
    assert sorted(set(ALLOWED) - unset) == [], "stale ALLOWED entry"


def test_every_allowed_field_is_set_by_the_test_it_names():
    """Deleting the reference case retires its exemption."""
    for (cls, name), reason in ALLOWED.items():
        paths = re.findall(r"tests/[\w/]+\.py", reason)
        assert len(paths) == 1, (cls, name, reason)
        path = ROOT / paths[0]
        assert path.is_file(), (cls, name, paths[0])
        assert (cls, name) in _set_in(_parse(path)), (cls, name, paths[0])


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
