"""``repro-rla paper``: the seed grid, its checks, its gate and its files.

Each check that replaced an assertion of the retired figure benches is
shown to pass on a synthetic set of runs built to satisfy every check,
and to FAIL on a copy that violates it alone.
"""

import math
import pathlib
import re

import pytest

from repro.cli import main
from repro.experiments import figures
from repro.experiments.figures import FIGURES, SEEDS, _spec, run_paper
from repro.experiments.runner import TreeExperimentResult
from repro.experiments.tables import T95_4DF

ROOT = pathlib.Path(__file__).resolve().parents[2]
RECEIVERS = ("R1", "R2", "R3")


def _result(spec, rla=100.0, wtcp=80.0, sessions=1):
    """A synthetic result of ``spec``: RLA at ``rla`` pkt/s with 27
    troubled receivers, three TCPs from ``wtcp`` up, R3 the less
    congested tier."""
    session = {"throughput_pps": rla, "mean_cwnd": 25.0, "mean_rtt": 0.25,
               "congestion_signals": 23, "window_cuts": 10,
               "forced_cuts": 0, "num_trouble": 27,
               "signals_by_receiver": {"R1": 10, "R2": 10, "R3": 3}}
    tcp = {r: {"throughput_pps": wtcp + 10.0 * i, "mean_cwnd": 20.0,
               "mean_rtt": 0.25, "window_cuts": 10}
           for i, r in enumerate(RECEIVERS)}
    return TreeExperimentResult(
        spec, rla=[dict(session, signals_by_receiver=dict(
            session["signals_by_receiver"])) for _ in range(sessions)],
        tcp=tcp, tiers={"more": ["R1", "R2"], "less": ["R3"]},
        receivers=list(RECEIVERS))


def _runs(name):
    """Runs of figure ``name`` that pass every one of its checks."""
    rla = {1: 100.0, 2: 110.0, 3: 90.0, 4: 120.0, 5: 200.0}
    sessions = FIGURES[name].rla_sessions
    runs = {case: [_result(_spec(name, case, duration=60.0, warmup=20.0,
                                 seed=seed, audited=False),
                           rla=rla[case] / sessions, sessions=sessions)
                   for seed in range(1, SEEDS + 1)]
            for case in FIGURES[name].cases}
    if name == "fig7":
        for run in runs[1]:
            run.rla[0]["mean_cwnd"] = 30.0  # the Lemma: case 1 > case 3
    return runs


def _set(case, key, value, seed=0, session=0):
    def mutate(runs):
        runs[case][seed].rla[session][key] = value
    return mutate


def _every_seed(case, key, value):
    def mutate(runs):
        for run in runs[case]:
            run.rla[0][key] = value
    return mutate


def _signals(case, **counts):
    def mutate(runs):
        for run in runs[case]:
            run.rla[0]["signals_by_receiver"].update(counts)
    return mutate


def _wtcp(case, value):
    def mutate(runs):
        runs[case][0].tcp["R1"]["throughput_pps"] = value
    return mutate


def _not_generalized(runs):
    runs[1][0].spec = _spec("fig7", 1, duration=60.0, warmup=20.0, seed=1,
                            audited=False)


#: (figure, the successor check's line, a mutation violating it).  The
#: line prefixes name the retired bench assertions (CHANGES.md).
VIOLATIONS = [
    ("fig7", "Theorem II holds", _set(5, "throughput_pps", 8000.0)),
    ("fig7", "case 5 has the largest", _every_seed(2, "throughput_pps", 300.0)),
    ("fig7", "case 5 ratio > 1.5", _every_seed(5, "throughput_pps", 110.0)),
    ("fig7", "case 1 RLA cwnd > case 3's", _every_seed(3, "mean_cwnd", 40.0)),
    ("fig7", "forced cuts", _set(4, "forced_cuts", 3)),
    ("fig8", "case 2 RLA signals / TCP cuts", _signals(2, R1=40, R2=40)),
    ("fig8", "case 3 RLA signals / TCP cuts", _signals(3, R1=2, R2=2)),
    ("fig8", "case 5 congested-tier", _signals(5, R3=6)),
    ("fig9", "Theorem I holds", _set(5, "throughput_pps", 1000.0)),
    ("fig9", "case 5 has the largest", _every_seed(2, "throughput_pps", 300.0)),
    ("fig9", "case 1 ratio in (0.5, 3.0)", _every_seed(1, "throughput_pps", 36.0)),
    ("fig10", "no WTCP shut out", _wtcp(2, 4.0)),
    ("fig10", "Theorem II holds", _set(1, "throughput_pps", 8000.0)),
    ("fig10", "every run is the generalized RLA", _not_generalized),
    ("multisession", "no session starved", _set(3, "throughput_pps", 0.0,
                                                 session=1)),
    ("multisession", "session throughputs within 0.55x",
     _every_seed(3, "throughput_pps", 20.0)),
    ("multisession", "session windows within 0.6x",
     _every_seed(3, "mean_cwnd", 10.0)),
    ("multisession", "the sessions together < 220",
     _every_seed(3, "throughput_pps", 180.0)),
]


@pytest.mark.parametrize("name", list(FIGURES))
def test_every_check_passes_on_runs_that_satisfy_it(name):
    checks = FIGURES[name].checks(_runs(name))
    assert checks and all(ok for _, ok in checks), checks


@pytest.mark.parametrize("name,line,mutate", VIOLATIONS,
                         ids=[f"{n}: {line}" for n, line, _ in VIOLATIONS])
def test_a_check_fails_on_runs_that_violate_it(name, line, mutate):
    runs = _runs(name)
    mutate(runs)
    failed = [text for text, ok in FIGURES[name].checks(runs) if not ok]
    assert any(text.startswith(line) for text in failed), failed


def test_every_check_has_a_violation_test():
    tested = {(name, line) for name, line, _ in VIOLATIONS}
    for name in FIGURES:
        for text, _ in FIGURES[name].checks(_runs(name)):
            assert any(n == name and text.startswith(line)
                       for n, line in tested), (name, text)


def test_the_confidence_interval_is_student_t_at_four_degrees():
    """T95_4DF is the t quantile: P(|T| < t) = 0.95 for T ~ t(4), whose
    two-sided tail has the closed form 1 - x (3 - x^2) / 2 with x = t /
    sqrt(t^2 + 4)."""
    x = T95_4DF / math.sqrt(T95_4DF ** 2 + 4)
    assert x * (3 - x * x) / 2 == pytest.approx(0.95, abs=1e-12)
    assert SEEDS - 1 == 4


def test_figure_8_renders_the_figure_7_runs(monkeypatch):
    simulated = []

    def run_many(specs, **runtime):
        simulated.extend(specs)
        return [_result(spec) for spec in specs]

    monkeypatch.setattr(figures, "run_many", run_many)
    report, _ = run_paper(["fig7", "fig8"], duration=2.0, warmup=1.0,
                          seed=3, audited=False)
    assert len(simulated) == 5 * SEEDS
    assert [spec.seed for spec in simulated[:SEEDS]] == [3, 4, 5, 6, 7]
    assert FIGURES["fig7"].title in report and FIGURES["fig8"].title in report


@pytest.mark.parametrize("duration,code", [("3", 0), ("40", 1)])
def test_a_failed_check_fails_the_command_from_40_measured_seconds(
        monkeypatch, capsys, duration, code):
    failing = _runs("fig9")
    _every_seed(1, "throughput_pps", 36.0)(failing)
    monkeypatch.setattr(figures, "run_many", lambda specs, **runtime: [
        run for case in sorted(failing) for run in failing[case]])
    assert main(["paper", "fig9", "--duration", duration]) == code
    assert "\nFAIL  case 1 ratio in (0.5, 3.0)" in capsys.readouterr().out


def test_an_unknown_figure_is_one_error_line(capsys):
    assert main(["paper", "fig9", "fig11"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "error: unknown figure fig11; expected some of "
        "fig7 fig8 fig9 fig10 multisession\n"))


def test_the_committed_short_run_is_what_the_command_prints(capsys):
    """results/paper_ci.txt is `repro-rla paper fig9 --duration 3
    --warmup 1` (`make paper` rewrites it)."""
    assert main(["paper", "fig9", "--duration", "3", "--warmup", "1"]) == 0
    assert capsys.readouterr().out == (
        ROOT / "results" / "paper_ci.txt").read_text(encoding="utf-8")


def test_experiments_e5_is_the_committed_600_s_run():
    """EXPERIMENTS.md's generated block is results/paper_600.txt verbatim
    (`make paper` splices it in)."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    block = re.search(r"<!-- generated from results/paper_600\.txt[^\n]*\n"
                      r"```\n(.*?)```\n<!-- end of generated block -->",
                      text, re.DOTALL)
    assert block is not None
    assert block.group(1) == (ROOT / "results" / "paper_600.txt").read_text(
        encoding="utf-8")
