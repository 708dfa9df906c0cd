"""The byte-identity oracle: snapshot -> restore -> run == straight run.

Every assertion here compares ``pickle.dumps`` of the final report, so
*any* state the snapshot fails to carry — an RNG stream, a heap entry, a
protocol counter, an audit ledger, a process-global — shows up as a byte
difference.  Covered: the figure workloads (drop-tail and RED trees),
every churn-catalog scenario, a symmetric sweep point, audited and
unaudited, same-process and fresh-process restores, and both RLA sender
implementations.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro.checkpoint import capture, resolve_entrypoint, restore
from repro.experiments.runner import (
    TreeExperimentSpec,
    build_tree_world,
    run_tree_experiment,
)
from repro.experiments.sweeps import (
    build_restricted_world,
    run_symmetric_spec,
    symmetric_point,
)
from repro.lifecycle import snapshot_world
from repro.scenarios.catalog import get_scenario, scenario_names
from repro.scenarios.runner import (
    build_scenario_world,
    checkpoint_scenario,
    run_scenario,
)
from repro.topology.cases import TREE_CASES

#: Small-but-shape-preserving horizons for the oracle runs.
DURATION, WARMUP = 5.0, 1.5


def tree_report_bytes_via_snapshot(spec: TreeExperimentSpec,
                                   at: float) -> bytes:
    world = build_tree_world(spec)
    try:
        snapshot = snapshot_world(world, at=at)
    finally:
        world.disarm()
    finish = resolve_entrypoint(snapshot.resume)
    return pickle.dumps(finish(restore(snapshot)))


@pytest.mark.parametrize("gateway", ["droptail", "red"])
@pytest.mark.parametrize("audited", [False, True], ids=["plain", "audited"])
def test_tree_experiment_byte_identity(gateway, audited):
    """Figure 7 (drop-tail) / figure 9 (RED) workloads, interior restore."""
    spec = TreeExperimentSpec(
        case=TREE_CASES[2], gateway=gateway, duration=DURATION,
        warmup=WARMUP, seed=5, audited=audited,
    )
    straight = pickle.dumps(run_tree_experiment(spec))
    assert tree_report_bytes_via_snapshot(spec, at=3.0) == straight
    # the warmup boundary is the trickiest split point: counters must be
    # marked exactly once, on the restored side of the cut
    assert tree_report_bytes_via_snapshot(spec, at=WARMUP) == straight


def test_capture_with_a_re_keyed_timer_entry_restores_byte_identically():
    """A TCP sender's RTO timer is re-keyed on every ACK, so a mid-run heap
    holds entries filed under an earlier key than their handle's; the
    restored engine must file them again exactly as the original does."""
    spec = TreeExperimentSpec(case=TREE_CASES[2], duration=DURATION,
                              warmup=WARMUP, seed=5)
    straight = pickle.dumps(run_tree_experiment(spec))
    world = build_tree_world(spec)
    try:
        snapshot = snapshot_world(world, at=3.0)
    finally:
        world.disarm()
    restored = restore(snapshot)
    stale = [entry for entry in restored.sim._queue
             if entry[2] is not None and not entry[2].cancelled
             and entry[1] != entry[2].seq]
    assert stale and all(entry[2].name.endswith(".rto") for entry in stale)
    assert all(entry[0] == entry[2]._filed_at < entry[2].time
               for entry in stale)
    finish = resolve_entrypoint(snapshot.resume)
    assert pickle.dumps(finish(restored)) == straight


def test_checkpointed_run_returns_identical_result(tmp_path):
    """run_tree_experiment(checkpoint_at=...) pauses, snapshots, and still
    produces the byte-identical result."""
    spec = TreeExperimentSpec(case=TREE_CASES[1], duration=DURATION,
                              warmup=WARMUP, seed=3)
    straight = pickle.dumps(run_tree_experiment(spec))
    path = tmp_path / "mid.ckpt"
    checkpointed = run_tree_experiment(spec, checkpoint_at=3.0,
                                       checkpoint_path=str(path))
    assert pickle.dumps(checkpointed) == straight
    assert path.exists()


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("audited", [False, True], ids=["plain", "audited"])
def test_scenario_catalog_byte_identity(name, audited):
    """Every catalog scenario (churn, mice, bursty, steady): snapshot at
    an interior time, restore, run — report rows byte-identical."""
    spec = get_scenario(name, duration=DURATION, warmup=WARMUP,
                        audited=audited)
    straight = pickle.dumps(run_scenario(spec))

    world = build_scenario_world(spec)
    try:
        snapshot = snapshot_world(world, at=3.0)
    finally:
        world.disarm()
    finish = resolve_entrypoint(snapshot.resume)
    assert pickle.dumps(finish(restore(snapshot))) == straight


@pytest.mark.parametrize("audited", [False, True], ids=["plain", "audited"])
def test_sweep_point_byte_identity(audited):
    """A symmetric sweep point is a world like the others: snapshotted
    mid-run (and exactly at the warmup boundary), restored and finished,
    its row is byte-identical to ``run_symmetric_spec``'s."""
    params = dict(n_receivers=3, share_pps=100.0, buffer_pkts=20,
                  duration=DURATION, warmup=WARMUP, seed=4,
                  gateway="droptail", audited=audited)
    straight = pickle.dumps(run_symmetric_spec(symmetric_point(**params)))
    for at in (3.0, WARMUP):
        world = build_restricted_world(symmetric_point(**params))
        try:
            snapshot = snapshot_world(world, at=at)
        finally:
            world.disarm()
        assert snapshot.label == f"restricted n=3/droptail@t={at:g}"
        finish = resolve_entrypoint(snapshot.resume)
        assert pickle.dumps(finish(restore(snapshot))) == straight


def test_fresh_process_restore_byte_identity(tmp_path):
    """The full ISSUE oracle: snapshot an *audited* churn run mid-flight,
    restore in a brand-new interpreter, run to completion — the report
    pickle must match the straight-through run byte for byte.  This is
    what forces the process-global packet uid counter and audit
    creation-hook to be part of the checkpoint contract."""
    spec = get_scenario("tree-churn", duration=DURATION, warmup=WARMUP,
                        audited=True)
    straight = pickle.dumps(run_scenario(spec))

    path = tmp_path / "fresh.ckpt"
    checkpoint_scenario(spec, at=3.0, path=str(path))
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    child = subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys\n"
         "from repro.checkpoint import load, resume\n"
         f"report = resume(load({str(path)!r}))\n"
         "sys.stdout.buffer.write(pickle.dumps(report))\n"],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
    )
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout == straight


@pytest.mark.parametrize("sender", ["incremental", "naive"])
def test_rla_session_byte_identity_both_senders(sender):
    """Both RLA sender implementations — the incremental production
    sender and the naive whole-group reference — round-trip through a
    snapshot with byte-identical session reports."""
    from repro.rla import NaiveRLASender
    from repro.rla.sender import RLASender
    from repro.rla.session import RLASession
    from repro.sim.engine import Simulator
    from repro.topology.tree import build_tertiary_tree

    sender_cls = {"incremental": RLASender, "naive": NaiveRLASender}[sender]

    def build():
        sim = Simulator(seed=9)
        net, info = build_tertiary_tree(sim)
        session = RLASession(sim, net, "rla-0", info.root,
                             info.leaves[:9], sender_cls=sender_cls)
        session.start(0.05)
        return {"sim": sim, "session": session}

    world = build()
    world["sim"].run(until=8.0)
    straight = pickle.dumps(world["session"].report())

    world = build()
    world["sim"].run(until=3.0)
    snapshot = capture(world)
    clone = restore(snapshot)
    clone["sim"].run(until=8.0)
    assert pickle.dumps(clone["session"].report()) == straight
    assert type(clone["session"].sender) is sender_cls
