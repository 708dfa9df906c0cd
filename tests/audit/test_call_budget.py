"""A machine-independent guard on what ``--audit`` costs.

Wall-clock tests are useless on a shared box, but the number of Python
function calls a seeded run makes is exact.  PR 17's audit diet removed
the calls that only *described* a hop that checked out
(``require(**context)``, ``_record`` -> ``record(**fields)``, a dict
comprehension over ``_reach`` per ACK): on ``tree-churn`` 2 + 0.5 s the
audit layer's extra calls fell from 0.96 of the unaudited run's calls to
0.51 (Python 3.11: 231 781 unaudited; +222 676 before, +117 493 after).
A ratio, because absolute counts differ between interpreter versions.
What is left is one call per hook the network fires, the two engine-event
records per hop, and the per-ACK sender checks — an audit layer that grows
a per-hop helper call back fails here on any machine.
"""

from __future__ import annotations

import sys

from repro.scenarios import get_scenario, run_scenario

#: Extra audited calls allowed, as a share of the unaudited run's calls.
BUDGET = 0.65


def _python_calls(audited: bool) -> int:
    spec = get_scenario("tree-churn", duration=2.0, warmup=0.5,
                        audited=audited)
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call":  # Python frames only; C calls are "c_call"
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        row = run_scenario(spec)
    finally:
        sys.setprofile(previous)
    if audited:
        assert row["sim_stats"]["audit_checks"] > 10_000
        assert row["sim_stats"]["violations"] == 0
    return calls


def test_audit_adds_at_most_budget_of_the_plain_runs_calls():
    # one throwaway run first: lazy imports are calls too
    run_scenario(get_scenario("tree-churn", duration=0.2, warmup=0.1,
                              audited=True))
    plain = _python_calls(audited=False)
    audited = _python_calls(audited=True)
    extra = audited - plain
    assert plain > 100_000
    assert 0 < extra <= BUDGET * plain, (
        f"--audit added {extra} Python calls to a run of {plain} "
        f"({extra / plain:.2f} of it; budget {BUDGET})"
    )
