"""Run specifications: the unit of work the parallel runtime executes.

A :class:`RunSpec` names an *entrypoint* — a module-level callable as
``"package.module:function"`` — plus the keyword parameters it receives.
Entrypoints are resolved by name inside worker processes, so a spec is
always picklable regardless of what the target function closes over.

Two properties make specs the key of the whole runtime layer:

* **Canonical form** — :meth:`RunSpec.canonical` renders the spec as
  deterministic JSON (sorted keys, dataclasses flattened), so equal specs
  hash equally across processes and Python versions.
* **Content key** — :meth:`RunSpec.key` mixes the canonical form with a
  hash of the ``repro`` source tree (:func:`code_version`), so the
  on-disk result cache invalidates itself whenever the simulator's code
  changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping

from ..errors import ConfigurationError


def _canonical_value(value: Any) -> Any:
    """Reduce ``value`` to JSON-stable primitives (sorted, order-free)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return {"__dataclass__": type(value).__name__,
                **{k: _canonical_value(v) for k, v in fields.items()}}
    if isinstance(value, Mapping):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical_value(v) for v in value)
    if isinstance(value, float) and value.is_integer() and (
            value or math.copysign(1.0, value) > 0.0):
        # 20.0 and 20 describe the same run; do not double-cache it.
        # -0.0 stays a float: a run can report it back (a fixed loss of
        # -0.0 reads -0.0 in its row), so it is not the run of 0.
        return int(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"run parameter of type {type(value).__name__} is not canonicalizable: "
        f"{value!r}"
    )


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run, addressable by content.

    Parameters
    ----------
    entrypoint:
        ``"module.path:function"`` of a module-level callable taking one
        ``dict`` argument (the params) and returning the run's result.
    params:
        Keyword parameters for the entrypoint.  Must canonicalize (plain
        scalars, containers, dataclasses).
    label:
        Optional human-readable name used in metric tables; defaults to
        a compact rendering of the params.
    """

    entrypoint: str
    params: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if ":" not in self.entrypoint:
            raise ConfigurationError(
                f"entrypoint must look like 'module:function': {self.entrypoint!r}"
            )

    # -- identity -------------------------------------------------------
    def canonical(self) -> str:
        """Deterministic JSON rendering of (entrypoint, params)."""
        payload = {"entrypoint": self.entrypoint,
                   "params": _canonical_value(self.params)}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def key(self, code: str = "") -> str:
        """Content hash of the spec mixed with a code-version string."""
        digest = hashlib.sha256()
        digest.update(self.canonical().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(code.encode("utf-8"))
        return digest.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def describe(self) -> str:
        """Short human-readable identity for tables and logs."""
        if self.label:
            return self.label
        name = self.entrypoint.rsplit(":", 1)[1]
        parts = ",".join(f"{k}={v}" for k, v in sorted(self.params.items())
                         if isinstance(v, (int, float, str, bool)))
        return f"{name}({parts})" if parts else name

    def resolve(self) -> Callable[[Dict[str, Any]], Any]:
        """Import and return the entrypoint callable."""
        module_name, _, func_name = self.entrypoint.partition(":")
        module = importlib.import_module(module_name)
        try:
            func = getattr(module, func_name)
        except AttributeError as exc:
            raise ConfigurationError(
                f"{module_name} has no attribute {func_name!r}"
            ) from exc
        if not callable(func):
            raise ConfigurationError(f"entrypoint {self.entrypoint!r} is not callable")
        return func


# ----------------------------------------------------------------------
# code versioning
# ----------------------------------------------------------------------
_code_version_cache: Dict[str, str] = {}


def code_version() -> str:
    """Hash of the ``repro`` package sources, for cache invalidation.

    Any edit to any module under ``repro`` changes this digest, which
    changes every spec key, which makes the on-disk cache miss — stale
    results can never be served after a code change.  Memoized per
    process (the tree is small; hashing takes milliseconds).
    """
    cached = _code_version_cache.get("digest")
    if cached is not None:
        return cached
    import repro

    root = os.path.dirname(repro.__file__)
    # each source as its path's parts under root: sorted, and hashed, as
    # pathlib would order and print them, for a third of pathlib's cost
    sources = sorted((*folder[len(root):].split(os.sep)[1:], name)
                     for folder, _, names in os.walk(root)
                     for name in names if name.endswith(".py"))
    digest = hashlib.sha256()
    for parts in sources:
        digest.update("/".join(parts).encode("utf-8") + b"\x00")
        with open(os.path.join(root, *parts), "rb") as handle:
            digest.update(handle.read() + b"\x00")
    version = digest.hexdigest()[:16]
    _code_version_cache["digest"] = version
    return version
