"""A config field exists only while a caller outside ``tests/`` sets it.

An AST walk over ``src/``, ``benchmarks/`` and ``examples/`` collects every
keyword (or positional argument) passed to one of :data:`CONFIGS`, and
every keyword of a ``replace(obj, ...)`` call (``dataclasses.replace``,
whose target the walk cannot type, so it counts for all four).  A
dataclass field that nothing there sets is a constant dressed as a knob:
make it a class attribute or a module constant, or list it in
:data:`ALLOWED` with the reason it stays.
"""

import ast
from dataclasses import fields
from pathlib import Path

from repro.rla.config import RLAConfig
from repro.tcp.config import TcpConfig
from repro.topology.dumbbell import DumbbellSpec
from repro.topology.restricted import RestrictedSpec

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "examples")
CONFIGS = (RLAConfig, TcpConfig, RestrictedSpec, DumbbellSpec)

#: ``(class name, field)`` -> why it stays a field with no caller.
ALLOWED = {}


def _set_fields():
    """``(class name, field)`` pairs some non-test caller sets."""
    names = {cls.__name__: [f.name for f in fields(cls)] for cls in CONFIGS}
    found = set()
    for top in CALLERS:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                keywords = [kw.arg for kw in node.keywords if kw.arg]
                if called == "replace" and node.args:
                    found.update((cls, kw) for cls in names for kw in keywords)
                elif called in names:
                    positional = names[called][:len(node.args)]
                    found.update((called, kw) for kw in keywords + positional)
    return found


def test_every_config_field_is_set_by_a_caller():
    declared = {(cls.__name__, f.name) for cls in CONFIGS for f in fields(cls)}
    unset = declared - _set_fields()
    assert sorted(unset - set(ALLOWED)) == [], (
        "no caller outside tests/ sets these: make them constants")
    assert sorted(set(ALLOWED) - unset) == [], "stale ALLOWED entry"
