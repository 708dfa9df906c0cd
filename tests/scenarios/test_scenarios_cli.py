"""The ``repro-rla scenarios`` CLI surface."""

import pytest

from repro.cli import main


def test_scenarios_list(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    assert "waxman-churn" in out
    assert "tree-churn" in out


def test_scenarios_run_prints_table(capsys):
    code = main(["scenarios", "run", "waxman-steady",
                 "--duration", "4", "--warmup", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "waxman-steady" in out
    assert "jain" in out


def test_scenarios_run_audited_with_metrics(capsys):
    code = main(["scenarios", "run", "waxman-churn",
                 "--duration", "5", "--warmup", "2", "--audit", "--metrics"])
    assert code == 0
    out = capsys.readouterr().out
    assert "waxman-churn" in out
    assert "runtime summary" in out


def test_scenarios_run_unknown_name_fails(capsys):
    assert main(["scenarios", "run", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_scenarios_run_seed_override_changes_output(capsys):
    main(["scenarios", "run", "waxman-steady", "--duration", "4",
          "--warmup", "2"])
    base = capsys.readouterr().out
    main(["scenarios", "run", "waxman-steady", "--duration", "4",
          "--warmup", "2", "--seed", "3"])
    other = capsys.readouterr().out
    assert base != other


def test_grid_slice_of_only_skipped_cells_is_an_error(capsys):
    """``--gateways droptail --ecn on`` printed a header-only table, exit 0."""
    assert main(["scenarios", "grid", "--gateways", "droptail",
                 "--ecn", "on"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: empty grid slice")
    assert "no early notification to mark" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""

    # a mixed slice still skips its drop-tail + ECN cells silently
    assert main(["scenarios", "grid", "--gateways", "droptail", "red",
                 "--ecn", "on", "--mixes", "uniform", "--spreads", "wide",
                 "--duration", "2", "--warmup", "1"]) == 0
    captured = capsys.readouterr()
    assert "red " in captured.out and "droptail" not in captured.out
    assert captured.err == ""
