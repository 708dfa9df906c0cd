"""Fork semantics: deterministic divergence, independent worlds."""

from __future__ import annotations

import pickle

import pytest

from repro.checkpoint import (
    CheckpointError,
    branch_labels,
    fork,
    run_fork_ensemble,
)
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import checkpoint_scenario

DURATION, WARMUP = 5.0, 1.5


@pytest.fixture(scope="module")
def snapshot():
    """One warmed-up churn scenario snapshot shared by the fork tests."""
    spec = get_scenario("tree-churn", duration=DURATION, warmup=WARMUP)
    return checkpoint_scenario(spec, at=3.0)


def test_branch_labels():
    assert branch_labels(3) == ["fork.0", "fork.1", "fork.2"]
    assert branch_labels(1, prefix="seed") == ["seed.0"]
    with pytest.raises(CheckpointError):
        branch_labels(0)


def test_fork_reseeded_branches_diverge_deterministically(snapshot):
    first = run_fork_ensemble(snapshot, 3)
    second = run_fork_ensemble(snapshot, 3)
    assert pickle.dumps(first) == pickle.dumps(second)  # reproducible
    reports = {pickle.dumps(report) for _, report in first}
    assert len(reports) > 1  # branch futures actually diverge


def test_fork_yields_independent_worlds(snapshot):
    worlds = [world for _, world in fork(snapshot, 2)]
    assert worlds[0] is not worlds[1]
    assert worlds[0].sim is not worlds[1].sim
    # advancing one branch does not move the other
    worlds[0].sim.run(until=4.0)
    assert worlds[1].sim.now < 4.0


def test_run_fork_ensemble_requires_resume_entrypoint(snapshot):
    import dataclasses

    bare = dataclasses.replace(snapshot, resume="")
    with pytest.raises(CheckpointError, match="no resume entrypoint"):
        run_fork_ensemble(bare, 2)
