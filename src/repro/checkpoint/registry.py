"""Registry of checkpoint-capable RunSpec entrypoints.

The parallel executor (:func:`repro.runtime.run_specs`) is generic over
entrypoints, but writing a mid-run snapshot requires runner cooperation
(the run must stop at the checkpoint time, capture, then continue).
Runners that support this register a *checkpoint runner* — a callable
``(params, checkpoint_at, checkpoint_path) -> result`` returning exactly
what the plain entrypoint returns, with the snapshot file as a side
effect — keyed by the plain entrypoint path.  Registration happens at
import time in :mod:`repro.experiments.runner` and
:mod:`repro.scenarios.runner`; worker processes re-import those modules
when resolving specs, so the registry is populated wherever it is needed.
"""

from __future__ import annotations

from typing import Dict

from .snapshot import CheckpointError

_CHECKPOINT_RUNNERS: Dict[str, str] = {}


def register_checkpoint_runner(entrypoint: str, runner: str) -> None:
    """Declare ``runner`` as the checkpoint-capable variant of ``entrypoint``.

    Both are ``"module:function"`` paths (runners must be module-level so
    they resolve inside worker processes).  Re-registering the same pair is
    a no-op; conflicting registrations are an error.
    """
    existing = _CHECKPOINT_RUNNERS.get(entrypoint)
    if existing is not None and existing != runner:
        raise CheckpointError(
            f"entrypoint {entrypoint!r} already has checkpoint runner "
            f"{existing!r}; refusing to replace it with {runner!r}"
        )
    _CHECKPOINT_RUNNERS[entrypoint] = runner


def require_checkpoint_runner(entrypoint: str) -> str:
    """The registered checkpoint runner path; a helpful error if none."""
    runner = _CHECKPOINT_RUNNERS.get(entrypoint)
    if runner is None:
        raise CheckpointError(
            f"entrypoint {entrypoint!r} does not support mid-run "
            f"checkpoints; registered: {sorted(_CHECKPOINT_RUNNERS) or '(none)'}"
        )
    return runner
