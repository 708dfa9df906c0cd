"""End-to-end: paper experiments run clean under the auditor."""

from repro.experiments.runner import TreeExperimentSpec, run_tree_experiment
from repro.experiments.sweeps import run_symmetric_spec, symmetric_point
from repro.topology.cases import TREE_CASES


def _spec(**overrides):
    base = dict(case=TREE_CASES[1], duration=6.0, warmup=3.0, audited=True)
    base.update(overrides)
    return TreeExperimentSpec(**base)


def test_audited_fig7_case_runs_clean():
    result = run_tree_experiment(_spec())
    assert result.stats["violations"] == 0
    assert result.stats["audit_checks"] > 10_000
    # the audited run still produces the paper metrics
    assert result.rla[0]["throughput_pps"] > 0


def test_audited_red_case_runs_clean():
    result = run_tree_experiment(_spec(gateway="red"))
    assert result.stats["violations"] == 0


def test_unaudited_run_reports_no_audit_stats():
    result = run_tree_experiment(_spec(audited=False))
    assert "violations" not in result.stats
    assert "audit_checks" not in result.stats


def test_audit_does_not_change_results():
    plain = run_tree_experiment(_spec(audited=False))
    audited = run_tree_experiment(_spec(audited=True))
    assert audited.rla[0] == plain.rla[0]
    assert audited.tcp == plain.tcp
    assert audited.stats["events"] == plain.stats["events"]


def test_audited_symmetric_sweep_point_runs_clean():
    row = run_symmetric_spec(symmetric_point(
        n_receivers=2, share_pps=100.0, buffer_pkts=20,
        duration=5.0, warmup=2.0, seed=1, gateway="droptail", audited=True,
    ))
    assert row["sim_stats"]["violations"] == 0
    assert row["sim_stats"]["audit_checks"] > 0
    assert row["rla_pps"] > 0
