"""Every repo path, ``make`` target and ``repro`` name the docs give must exist.

Scanned: README.md, EXPERIMENTS.md, DESIGN.md, ``docs/*.md``, the Makefile
and the CI workflow.  Checked: paths under ``src/ tests/ benchmarks/ docs/
examples/`` (globs must match something), root ``BENCH*.json`` records,
``make <target>`` mentions, and in the Markdown files every backticked
path containing ``/`` (root-relative, or under ``src/`` when it starts
``repro/``) and every backticked dotted ``repro.x.y`` name, which must
import as a module or resolve as an attribute of one.  Exempt: anything
the root ``.gitignore`` covers (outputs the Makefile or a run produces)
and ``git show <rev>:<path>`` citations, which name history on purpose.
``benchmarks/rlabench/`` holds its own docs and is not scanned.
"""

from __future__ import annotations

import fnmatch
import importlib
import pathlib
import re
from typing import Iterator, List, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MAKEFILE = ROOT / "Makefile"
SCANNED = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md",
           *sorted((ROOT / "docs").glob("*.md")), MAKEFILE,
           ROOT / ".github" / "workflows" / "ci.yml"]

#: a path, not preceded by ``rev:`` (a ``git show`` citation) or more path
PATH = re.compile(r"(?<![\w.:-])((?:src|tests|benchmarks|docs|examples)/"
                  r"[\w./*-]*[\w*/]|(?<!/)BENCH\w*\.json)")
#: a backticked path: ``/``-joined parts, none but the last holding a dot
#: (a leading one aside, as in ``.bench-base/``), so dotted shorthand such
#: as ``repro.sim/net`` is not one; ``repro/...`` is under ``src/``
PATH_SPAN = re.compile(r"`((?:\.?[\w*-]+/)+[\w*.-]*)`")
#: ``make x`` in code position: line start, after a backtick or after ": "
MAKE = re.compile(r"(?:^\s*|`|: )make\s+([a-z][\w-]*)", re.MULTILINE)
TARGET = re.compile(r"^([a-z][\w-]*):", re.MULTILINE)
#: one inline code span, and a dotted ``repro`` name inside it
CODE_SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")


def _ignored(path: str, patterns: List[str]) -> bool:
    """Whether the root .gitignore covers ``path`` (the subset of its
    syntax that file uses: directory prefixes and per-component globs)."""
    parts = path.rstrip("/").split("/")
    for pattern in patterns:
        if "/" in pattern:
            if (path + "/").startswith(pattern + "/"):
                return True
        elif any(fnmatch.fnmatch(part, pattern) for part in parts):
            return True
    return False


def _mentions(regex: "re.Pattern[str]", source: pathlib.Path
              ) -> Iterator[Tuple[int, str]]:
    text = source.read_text(encoding="utf-8")
    for match in regex.finditer(text):
        yield text.count("\n", 0, match.start(1)) + 1, match.group(1)


@pytest.mark.parametrize("source", SCANNED,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_named_paths_and_make_targets_exist(source):
    patterns = [line.strip().rstrip("/") for line in
                (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
                if line.strip() and not line.startswith("#")]
    targets = set(TARGET.findall(MAKEFILE.read_text(encoding="utf-8")))
    missing = []
    spans = _mentions(PATH_SPAN, source) if source.suffix == ".md" else ()
    for line, path in sorted({*_mentions(PATH, source), *spans}):
        if _ignored(path, patterns):
            continue
        where = "src/" + path if path.startswith("repro/") else path
        found = (any(ROOT.glob(where.rstrip("/"))) if "*" in where
                 else (ROOT / where).exists())
        if not found:
            missing.append(f"{source.name}:{line}: no such path {path}")
    for line, target in _mentions(MAKE, source):
        if target not in targets:
            missing.append(f"{source.name}:{line}: no make target {target}")
    assert not missing, "\n".join(missing)


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` imports as a module or is an attribute chain
    on the longest prefix of it that does."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


@pytest.mark.parametrize("source", [path for path in SCANNED
                                    if path.suffix == ".md"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_named_repro_names_resolve(source):
    text = source.read_text(encoding="utf-8")
    missing = []
    for span in CODE_SPAN.finditer(text):
        if span.group(1).startswith("git show "):
            continue
        line = text.count("\n", 0, span.start()) + 1
        for name in NAME.findall(span.group(1)):
            if not _resolves(name):
                missing.append(f"{source.name}:{line}: no such name {name}")
    assert not missing, "\n".join(missing)
