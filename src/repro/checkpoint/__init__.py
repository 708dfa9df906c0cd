"""Checkpoint/restore of running simulations (ROADMAP item 5).

``repro.checkpoint`` snapshots the complete state of a simulation —
engine, RNG streams, protocol agents, queues, audit ledgers — so that:

* ensemble sweeps fork hundreds of variant futures from one warmed-up
  state instead of re-simulating slow-start for every variant;
* long runs can be checkpointed mid-flight and resumed in a fresh
  process (``--checkpoint-at`` / ``repro.cli resume``);
* :mod:`repro.audit` invariant violations can be bisected in sim-time by
  restoring progressively earlier snapshots.

The correctness oracle is byte-identity: snapshot -> restore -> run must
produce a report pickle identical to the straight-through run, audited
and unaudited (see ``tests/checkpoint``).
"""

from .fork import branch_labels, fork, run_fork_ensemble
from .snapshot import (
    FORMAT_VERSION,
    CheckpointError,
    Snapshot,
    capture,
    dumps,
    load,
    resolve_entrypoint,
    restore,
    resume,
    save,
)

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "Snapshot",
    "branch_labels",
    "capture",
    "dumps",
    "fork",
    "load",
    "resolve_entrypoint",
    "restore",
    "resume",
    "run_fork_ensemble",
    "save",
]
