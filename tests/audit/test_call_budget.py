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

Re-pinned by PR 20, which made the *unaudited* hop cheaper and so moved
this ratio without touching the audit layer.  Same run, same interpreter,
9 290 link transmissions in all four cells of the first two rows (9 301
in the last two):

=============  =========  =======  =======  =================
..             unaudited  audited  extra    extra / unaudited
=============  =========  =======  =======  =================
before         231 791    349 287  117 496  0.51
after PR 20    197 958    335 552  137 594  0.70
one event/hop  181 941    306 043  124 102  0.68
no dead work   153 244    289 236  135 992  0.89
=============  =========  =======  =======  =================

The denominator shrank (a link event nobody observes no longer builds an
``Event`` handle, and a hop makes fewer calls), and the numerator now
holds what it always paid for under another name: an observed event must
still reach ``event_hook`` as an ``Event``, so the engine builds one at
dispatch for each of a hop's two events — ``Event.__init__`` moved from
the unaudited column to the extra column, it did not appear.  The ratio
is therefore budgeted at measured + 10 %, and the intent is asserted
directly beside it: the audited run's *total* calls per link transmission
(37.6 before, 36.1 after) may not exceed the figure from before, so an
audit layer — or a hooked dispatch path — that gets dearer in absolute
terms fails whatever happens to the unaudited run.

Re-pinned again ("no dead work") for the same reason; "one event/hop" is
the link posting one event per hop, before it.  An idle wire now takes
its gateway's ``serve`` verdict, which on a drop-tail or RED gateway
nobody hooks skips the deque round trip (``_accept`` + ``dequeue``); the
audit's conservation hooks watch every gateway, so the audited hop must
keep that round trip, and it moved from the unaudited column to the
extra column.  The re-keyed RTO timer and the skipped empty set rebuilds
made both columns cheaper.  The ratio is budgeted at measured + 10 %
again, and the absolute guard tightens from 37.6 to 33.5 (32.90 with one
event per hop, 31.10 now).
"""

from __future__ import annotations

from repro.scenarios import get_scenario, run_scenario

#: Extra audited calls allowed, as a share of the unaudited run's calls
#: (0.89 measured; the table above gives why it moved from 0.51 to 0.70
#: and then to 0.89).
BUDGET = 0.98

#: Audited calls per link transmission with one event per hop (306 043 /
#: 9 301 = 32.90), plus the margin for interpreter versions.
AUDITED_CALLS_PER_TRANSMISSION = 33.5


def _tree_churn(audited: bool):
    spec = get_scenario("tree-churn", duration=2.0, warmup=0.5,
                        audited=audited)
    return lambda: run_scenario(spec)


def test_audit_adds_at_most_budget_of_the_plain_runs_calls(count_python_calls):
    # one throwaway run first: lazy imports are calls too
    run_scenario(get_scenario("tree-churn", duration=0.2, warmup=0.1,
                              audited=True))
    _, plain, transmissions = count_python_calls(_tree_churn(audited=False))
    row, audited, audited_transmissions = count_python_calls(
        _tree_churn(audited=True))
    assert row["sim_stats"]["audit_checks"] > 10_000
    assert row["sim_stats"]["violations"] == 0
    extra = audited - plain
    assert plain > 100_000
    assert audited_transmissions == transmissions > 5_000
    assert 0 < extra <= BUDGET * plain, (
        f"--audit added {extra} Python calls to a run of {plain} "
        f"({extra / plain:.2f} of it; budget {BUDGET})"
    )
    assert audited <= AUDITED_CALLS_PER_TRANSMISSION * transmissions, (
        f"an audited run makes {audited / transmissions:.1f} Python calls "
        f"per link transmission; budget {AUDITED_CALLS_PER_TRANSMISSION}"
    )
