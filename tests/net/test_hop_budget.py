"""A machine-independent guard on what one packet hop costs.

Wall-clock tests are useless on a shared box, but the number of Python
function calls a seeded run makes is exact.  Figure 7 cases 1 + 3, 3 + 1
simulated seconds, seed 1, unaudited, Python 3.11: 2 725 251 calls for
134 838 link transmissions = 20.2 per transmission before PR 20, 2 196 528
= 16.3 after it.  What PR 20 removed, per transmission: two
``Event.__init__`` (the ``.tx`` and ``.rx`` events nobody keeps — ``post``
puts the callback in the queue entry), ``Node._forward_unicast`` (inlined
into ``receive``), and the ``Link._serve_next`` call that existed only to
learn the gateway was empty (0.84 per transmission on this run).  What is
left is the hop itself: ``receive`` → ``send`` → ``enqueue`` → ``_accept``
→ ``dequeue`` → ``_transmit`` → ``post``, then ``_transmission_done`` →
``post`` → ``dequeue``, plus the endpoints' share.  A per-hop helper call
or a per-event allocation with an ``__init__`` that creeps back fails here
on any machine; the margin to the budget is for interpreter versions.
"""

from __future__ import annotations

from repro.experiments.fig7_droptail import run_fig7

#: Python calls allowed per link transmission (16.3 measured, 20.2 before).
BUDGET = 17.0


def test_python_calls_per_link_transmission_stay_in_budget(count_python_calls):
    # one throwaway run first: lazy imports are calls too
    run_fig7(duration=0.2, warmup=0.1, seed=1, cases=(1,))
    _, calls, transmissions = count_python_calls(
        lambda: run_fig7(duration=3.0, warmup=1.0, seed=1, cases=(1, 3)))
    assert transmissions > 100_000
    assert calls <= BUDGET * transmissions, (
        f"{calls} Python calls for {transmissions} link transmissions "
        f"({calls / transmissions:.1f} each; budget {BUDGET})"
    )
