"""Docstring-presence enforcement for the documented packages.

Mirrors the ruff ``D1`` scope declared in pyproject.toml — modules,
public classes, and public functions/methods in :mod:`repro.sim`,
:mod:`repro.runtime`, :mod:`repro.scenarios`,
:mod:`repro.checkpoint`, :mod:`repro.fluid` and :mod:`repro.lifecycle`
must carry docstrings.
Implemented over the AST so it runs in
environments without ruff/pydocstyle installed (the config stays the
single source of truth for *which* packages are covered).
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Tuple

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages, and one module, covered by the D1 rule (keep in sync with
#: pyproject.toml).
COVERED = ("sim", "runtime", "scenarios", "checkpoint", "fluid",
           "lifecycle.py")


def _covered_files() -> List[pathlib.Path]:
    files = []
    for entry in COVERED:
        path = SRC / entry
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    assert files, f"no sources found under {SRC} — layout changed?"
    return files


def _public_defs(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (qualified name, node) for every public def/class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                            and not sub.name.startswith("_")):
                        yield f"{node.name}.{sub.name}", sub


@pytest.mark.parametrize(
    "path", _covered_files(),
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_module_and_public_api_docstrings(path: pathlib.Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append("<module>")
    for name, node in _public_defs(tree):
        if ast.get_docstring(node) is None:
            missing.append(name)
    assert not missing, (
        f"{path.relative_to(SRC.parent)}: missing docstrings on "
        f"{', '.join(missing)} (D1 scope — see pyproject.toml)"
    )
