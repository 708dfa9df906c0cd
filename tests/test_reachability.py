"""No module under ``src/repro`` is surface that no command exercises.

A static import walk from ``repro.cli`` — relative imports resolved, imports
inside functions followed, ``"repro.x.y:func"`` entrypoint strings followed
(that is how pool workers reach a runner), ``TYPE_CHECKING`` blocks skipped —
must reach every module; one it cannot reach is deleted, or listed in
:data:`UNREACHED` with the reason it stays.

Within the modules, every top-level function and class and every
non-dunder method must be named somewhere else: a definition nothing
references, not even a test, is deleted.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRYPOINT = re.compile(r"(repro(?:\.\w+)+):(\w+)")

#: Module prefixes allowed to be unreachable from ``repro.cli``.
UNREACHED = (
    # reached by benchmarks/bench_baselines.py only; ROADMAP item 12's
    # ``--baselines`` table decides whether the package lives
    "repro.baselines",
    # executor fault-injection entrypoints, named as strings by
    # tests/runtime and benchmarks/rlabench
    "repro.runtime._testing",
)


def _imports(name, path):
    """Dotted names ``path`` may import: modules and ``module.attr``."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    todo = [ast.parse(path.read_text(encoding="utf-8"))]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            todo.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:  # one dot is the package itself
                base = package.split(".")
                base = base[:len(base) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = ENTRYPOINT.fullmatch(node.value)
            if match:
                yield match.group(1)
        todo.extend(ast.iter_child_nodes(node))


def test_every_module_is_reachable_from_the_cli():
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    seen, todo = set(), ["repro.cli"]
    while todo:
        name = todo.pop()
        if name in modules and name not in seen:
            seen.add(name)
            todo.append(name.rpartition(".")[0])  # importing a.b runs a/__init__
            todo.extend(_imports(name, modules[name]))
    allowed = {name for name in modules if any(
        name == prefix or name.startswith(prefix + ".") for prefix in UNREACHED)}
    assert sorted(set(modules) - seen - allowed) == [], "no command reaches these"
    assert sorted(seen & allowed) == [], "reachable: drop it from UNREACHED"
    assert all(prefix in modules for prefix in UNREACHED), "stale UNREACHED entry"


def _definitions(tree):
    """``(name, line)`` of each top-level function and class in ``tree``
    and each method of a top-level class; dunders (which Python itself
    calls) aside."""
    members = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in tree.body + [m for cls in members for m in cls.body]:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))):
            yield node.name, node.lineno


def _references(tree, reexports):
    """Names ``tree`` uses: loads and stores of a name, attribute names,
    import aliases (not a package's re-exports) and entrypoint strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if not (reexports and isinstance(node, ast.ImportFrom)):
                for alias in node.names:
                    yield alias.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = ENTRYPOINT.fullmatch(node.value)
            if match:
                yield match.group(2)


def test_every_definition_is_referenced_by_name():
    referenced = set()
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            referenced.update(_references(tree, path.name == "__init__.py"))
    unreferenced = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for name, line in _definitions(
            ast.parse(path.read_text(encoding="utf-8")))
        if name not in referenced]
    assert unreferenced == [], "nothing names these: delete them"
