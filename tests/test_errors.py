"""The exception hierarchy."""

import pytest

from repro import errors


def test_all_derive_from_repro_error():
    for exc in (errors.ConfigurationError, errors.SimulationError,
                errors.SchedulingError, errors.RoutingError,
                errors.TopologyError):
        assert issubclass(exc, errors.ReproError)


def test_scheduling_is_simulation_error():
    assert issubclass(errors.SchedulingError, errors.SimulationError)
    assert issubclass(errors.RoutingError, errors.SimulationError)


def test_topology_is_configuration_error():
    assert issubclass(errors.TopologyError, errors.ConfigurationError)


def test_catchable_as_base():
    with pytest.raises(errors.ReproError):
        raise errors.SchedulingError("late")


@pytest.mark.parametrize("figure", ["fig7", "fig8", "fig9", "fig10"])
def test_unknown_case_id_is_a_cli_error_not_a_traceback(figure, capsys):
    """``--cases 9`` used to die with a KeyError from the case registry."""
    from repro.cli import main

    assert main([figure, "--cases", "9", "--duration", "2",
                 "--warmup", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown case 9")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["resume", "fork"])
def test_snapshot_from_an_incompatible_build_is_a_cli_error(
        command, tmp_path, capsys):
    """A payload naming a module this build lacks used to be a traceback.

    (Snapshots from before routing moved in-tree pickle a networkx.Graph;
    their v1 header is already refused, whether or not networkx is there.)
    """
    import pickle

    from repro.checkpoint import FORMAT_VERSION, Snapshot, load, restore, save
    from repro.checkpoint.snapshot import CheckpointError
    from repro.cli import main

    payload = b"\x80\x04\x8c\x0fno_such_module_\x94\x8c\x05Graph\x94\x93\x94."
    with pytest.raises(ModuleNotFoundError):
        pickle.loads(payload)
    foreign = Snapshot(version=FORMAT_VERSION, code="0" * 16, label="foreign",
                       resume="repro.lifecycle:finish_world",
                       sim_time=1.0, uid_next=0, payload=payload)
    with pytest.raises(CheckpointError, match="incompatible build"):
        restore(foreign)

    path = save(foreign, tmp_path / "foreign.ckpt")
    assert main([command, str(path)]) == 2  # the code hash refuses it first
    assert "different simulator code" in capsys.readouterr().err
    assert main([command, str(path), "--allow-code-mismatch"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: snapshot written by an incompatible build")
    assert err.count("\n") == 1

    lost = Snapshot(**{**foreign.__dict__, "resume": "no_such_module_:finish"})
    assert main([command, str(save(lost, tmp_path / "lost.ckpt")),
                 "--allow-code-mismatch"]) == 2
    assert "cannot resolve entrypoint" in capsys.readouterr().err

    # pre-routing graphs; pre-diet audit ledgers; per-backend resume
    # entrypoints (a v3 header names one that no longer exists); a ready
    # lane of bare Events and a heap without handle-free entries (v4); a
    # tracer object pickled inside every Simulator (v5); no payload
    # digest to check (v6); two-event links with ``_busy`` state (v7)
    for version in (1, 2, 3, 4, 5, 6, 7):
        old = Snapshot(**{**foreign.__dict__, "version": version})
        with pytest.raises(CheckpointError, match=f"format v{version}"):
            load(save(old, tmp_path / "old.ckpt"), allow_code_mismatch=True)
        with pytest.raises(CheckpointError, match=f"format v{version}"):
            load(tmp_path / "old.ckpt")
    for flags in ([], ["--allow-code-mismatch"]):
        assert main([command, str(tmp_path / "old.ckpt"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "format v7" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["resume", "fork"])
def test_corrupt_or_truncated_snapshot_is_one_error_line(
        command, tmp_path, capsys):
    """A truncated file used to be blamed on "an incompatible build", and
    a flipped payload bit restored into a world that died mid-run with a
    traceback (this one: ``'int' object has no attribute 'startswith'``)."""
    from repro.cli import main
    from repro.scenarios import get_scenario
    from repro.scenarios.runner import checkpoint_scenario

    path = tmp_path / "mid.ckpt"
    checkpoint_scenario(get_scenario("tree-churn", duration=2.0, warmup=1.0),
                        at=1.5, path=str(path))
    good = path.read_bytes()
    flipped = bytearray(good)
    flipped[len(good) - 87436] ^= 1 << 5  # a byte of the pickled world
    for name, data in (("truncated", good[:len(good) // 2]),
                       ("flipped", bytes(flipped)),
                       ("header", good[:40])):
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes(data)
        assert main([command, str(bad)]) == 2, name
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1, (name, captured.err)
        assert captured.err.startswith("error: "), (name, captured.err)
        assert ("truncated or corrupt" in captured.err
                or "unreadable checkpoint file" in captured.err), captured.err
        assert captured.out == "", name


@pytest.mark.parametrize("workers", [1, 2])
def test_uncreatable_cache_dir_is_an_error_before_any_run(
        workers, tmp_path, capsys):
    """``--cache <a file>/sub`` used to simulate every point and then die
    in ``ResultCache.put`` with a NotADirectoryError traceback."""
    from repro.cli import main
    from repro.runtime import ResultCache, RunSpec, run_specs

    blocker = tmp_path / "a-file"
    blocker.write_text("")
    cache = ResultCache(blocker / "sub")  # only a write needs the directory
    ran = tmp_path / "ran"  # the entrypoint's first act is to create this
    with pytest.raises(errors.ConfigurationError,
                       match="cannot create cache directory"):
        run_specs([RunSpec("repro.runtime._testing:flaky",
                           {"marker": str(ran)})],
                  workers=workers, cache=cache)
    assert not ran.exists()

    assert main(["sweep", "--counts", "2", "--duration", "2", "--warmup", "1",
                 "--workers", str(workers),
                 "--cache", str(blocker / "sub")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot create cache directory")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["fig7", "--cases", "1"],
    ["sweep", "--counts", "2"],
    ["scenarios", "run", "tree-churn"],
], ids=" ".join)
def test_negative_worker_count_is_a_cli_error_before_any_run(
        argv, tmp_path, capsys):
    """``--workers -1`` used to run serially without a word."""
    from repro.cli import main

    assert main([*argv, "--duration", "2", "--warmup", "1", "--workers", "-1",
                 "--cache", str(tmp_path / "cache")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: workers must be >= 0: -1\n"
    assert captured.out == "" and not (tmp_path / "cache").exists()


@pytest.mark.parametrize("flag", ["--duration", "--warmup"])
def test_packet_sweep_with_a_nonsensical_horizon_is_a_cli_error(flag, capsys):
    """``sweep --duration -1`` used to print a row of nans and exit 0
    (the fluid backend already refused the same argv)."""
    from repro.cli import main

    for backend in ("packet", "fluid"):
        assert main(["sweep", "--counts", "2", "--backend", backend,
                     flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: need duration > 0 and warmup >= 0")
        assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["fig7", "--cases", "1", "--duration", "nan"],
    ["fig7", "--cases", "1", "--duration", "2", "--warmup", "nan"],
    ["fig9", "--cases", "1", "--duration", "inf"],
    ["sweep", "--counts", "2", "--duration", "nan"],
    ["scenarios", "run", "tree-churn", "--duration", "nan"],
    ["scenarios", "run", "tree-churn", "--duration", "2", "--warmup", "inf"],
    ["fluid", "scale", "--counts", "1000", "--duration", "nan"],
], ids=" ".join)
def test_non_finite_horizon_is_a_cli_error_not_a_hang(argv):
    """``--duration nan`` passed ``duration <= 0 or warmup < 0`` (spelled out
    in four specs, NaN-blind in all of them) and the packet commands never
    returned — no event time exceeds a NaN or infinite ``until`` — while
    the fluid ladder died converting NaN to a step count."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("error: need duration > 0 and warmup >= 0")
    assert done.stderr.count("\n") == 1 and done.stdout == ""


@pytest.mark.parametrize("command", ["resume", "fork"])
def test_unwritable_out_is_an_error_before_any_branch_runs(
        command, tmp_path, capsys, monkeypatch):
    """``--out /dev/null/x`` used to restore and simulate every branch,
    then die in ``_pickle_out`` with a NotADirectoryError traceback."""
    import repro.lifecycle
    from repro.cli import main
    from repro.scenarios import get_scenario
    from repro.scenarios.runner import checkpoint_scenario

    path = tmp_path / "mid.ckpt"
    checkpoint_scenario(get_scenario("tree-churn", duration=2.0, warmup=1.0),
                        at=1.5, path=str(path))
    blocker = tmp_path / "a-file"
    blocker.write_text("")

    def simulated(world):
        raise AssertionError("a branch was simulated")

    monkeypatch.setattr(repro.lifecycle, "finish_world", simulated)
    assert main([command, str(path), "--out", str(blocker / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {blocker / 'x'}")
    assert captured.err.count("\n") == 1


def test_checkpoint_dir_without_checkpoint_at_is_a_cli_error(tmp_path, capsys):
    """It used to be accepted and ignored: exit 0, nothing written."""
    from repro.cli import main

    target = tmp_path / "snapshots"
    assert main(["fig7", "--cases", "1", "--duration", "2", "--warmup", "1",
                 "--checkpoint-dir", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: --checkpoint-dir needs --checkpoint-at")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not target.exists()


def test_bad_checkpoint_time_is_reported_once_with_its_attempt_count(
        tmp_path, capsys):
    """A checkpoint time past the end is a property of the spec: the
    executor used to build every world twice and say "after 2 attempts"."""
    from repro.cli import main

    assert main(["fig7", "--cases", "1", "2", "--duration", "2", "--warmup",
                 "1", "--checkpoint-at", "5",
                 "--checkpoint-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 2 of 2 runs failed: ")
    assert err.count("(attempts: 1)") == 2 and "attempts: 2" not in err
    assert "checkpoint time 5.0 outside [0, 3.0)" in err
    assert err.count("\n") == 1
