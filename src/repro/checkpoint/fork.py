"""Fork: branch N variant futures from one restored snapshot.

The wall-clock story of ROADMAP item 5: long-duration runs spend most of
their time in slow-start and join storms; an ensemble sweep that forks
its variants from one warmed-up snapshot pays that cost once instead of
once per variant.

Each branch is an independent deep copy (deserialized from the frozen
payload), reseeded so its randomness future diverges deterministically by
branch label, before running to completion via the snapshot's resume
entrypoint.  Branches run sequentially in-process:
audited worlds install a process-global packet-creation hook, so only one
may be armed at a time — parallel fork ensembles should fan out restored
runs through :mod:`repro.runtime` worker processes instead.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Sequence, Tuple, Union

from .snapshot import CheckpointError, Snapshot, resolve_entrypoint, restore


def branch_labels(count: int, prefix: str = "fork") -> List[str]:
    """Default labels ``fork.0 .. fork.{count-1}`` for an ensemble."""
    if count < 1:
        raise CheckpointError(f"need at least one branch, got {count}")
    return [f"{prefix}.{index}" for index in range(count)]


def fork(
    snapshot: Snapshot,
    labels: Union[int, Sequence[str]],
) -> Iterator[Tuple[str, Any]]:
    """Yield ``(label, world)`` branches restored from one snapshot.

    Worlds are yielded lazily, one at a time, so audited branches can be
    armed, run, and disarmed before the next one is restored.  Every RNG
    stream of a branch is re-derived from ``(snapshot seed, label)`` —
    same label, same future; different labels, independent futures.
    (:func:`~repro.checkpoint.resume` replays the captured randomness
    exactly.)
    """
    if isinstance(labels, int):
        labels = branch_labels(labels)
    for label in labels:
        world = restore(snapshot)
        sim = getattr(world, "sim", None)
        if sim is None:
            raise CheckpointError(
                f"cannot reseed branch {label!r}: world exposes no .sim"
            )
        sim.rng.reseed(label)
        yield label, world


def run_fork_ensemble(
    snapshot: Snapshot,
    labels: Union[int, Sequence[str]],
) -> List[Tuple[str, Any]]:
    """Run every branch to completion; returns ``(label, report)`` pairs.

    Requires the snapshot to record a resume entrypoint (every snapshot
    :func:`repro.lifecycle.snapshot_world` takes does).
    """
    if not snapshot.resume:
        raise CheckpointError(
            "snapshot records no resume entrypoint; fork() the bare worlds "
            "and finish them manually"
        )
    finish = resolve_entrypoint(snapshot.resume)
    return [(label, finish(world)) for label, world in fork(snapshot, labels)]
