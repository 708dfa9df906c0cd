"""What ``benchmarks/rlabench`` reaches into ``src/repro`` for still exists.

The harness imports names from ``repro`` lazily and times a run by
swapping stage functions in their modules' namespaces, so a rename under
``src/`` breaks it only when the 30 s selftest next runs.  This reads the
harness sources with :mod:`ast` (no simulation, nothing executed from
``benchmarks/``) and resolves every name they mention.
"""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

RLABENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "rlabench"
SOURCES = {name: ast.parse((RLABENCH / f"{name}.py").read_text(encoding="utf-8"))
           for name in ("micro", "tracing", "run", "harness")}

#: ``"repro.pkg.module"`` or ``"repro.pkg.module:attribute"`` literals.
DOTTED = re.compile(r"repro(\.\w+)+(:\w+)?")


def _resolve(path):
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


def _assigned(tree, name):
    """The literal assigned to module-level ``name`` (plain or annotated)."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level {name} — harness layout changed?")


STAGES = _assigned(SOURCES["tracing"], "STAGES")
TRACKED = _assigned(SOURCES["tracing"], "TRACKED")


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_name_imported_from_repro_exists(source):
    missing = []
    for node in ast.walk(SOURCES[source]):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "repro"):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and DOTTED.fullmatch(node.value)):
            try:
                _resolve(node.value)
            except (ImportError, AttributeError):
                missing.append(node.value)
    assert not missing, f"rlabench/{source}.py names {missing}"


def test_every_swapped_stage_and_tracked_class_is_callable():
    assert len(STAGES) > 20 and len(TRACKED) > 4
    for owner, attr, _ in STAGES:
        assert callable(getattr(_resolve(owner), attr)), (owner, attr)
    for path in TRACKED.values():
        assert inspect.isclass(_resolve(path)), path


@pytest.mark.parametrize("attr", ["build_tree_world", "finalize_tree_world",
                                  "build_scenario_world",
                                  "finalize_scenario_world"])
def test_world_stages_are_defined_where_they_are_swapped(attr):
    """A re-export from elsewhere would be called through the other
    module's globals and escape the swap: every span would read 0."""
    (owner,) = [owner for owner, name, _ in STAGES if name == attr]
    func = getattr(importlib.import_module(owner), attr)
    assert inspect.isfunction(func) and func.__module__ == owner
