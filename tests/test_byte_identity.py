"""Byte-identity guards for the hot-path fast paths.

The PR-4 optimizations added conditional fast paths (hook-free gateway
enqueue, the engine's same-timestamp ready batch, cached fan-out) whose
cardinal sin would be *changing results* depending on which path runs.
These tests pin the contract from both sides:

* observer variants (audited, parallel workers, explicit enqueue hooks)
  produce reports byte-identical — via :func:`pickle.dumps` — to the
  plain serial run;
* the observers demonstrably still fire, so the no-hook fast path cannot
  silently skip installed hooks.
"""

from __future__ import annotations

import pickle

from repro.experiments.figures import run_figure
from repro.scenarios import get_scenario, run_scenario
from repro.sim.engine import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.flow import TcpFlow
from repro.topology.restricted import RestrictedSpec, build_restricted

# Short but non-trivial: long enough for drops, retransmissions, and
# multicast fan-out to all occur.
DURATION = 6.0
WARMUP = 2.0


def _fig7_bytes(result, strip_audit=False):
    """Canonical byte serialization of one tree-experiment result."""
    stats = dict(result.stats)
    if strip_audit:
        stats.pop("audit_checks", None)
        stats.pop("violations", None)
    return pickle.dumps((result.rla, result.tcp, result.tiers,
                         result.receivers, stats))


def _scenario_bytes(row, strip_audit=False):
    """Canonical byte serialization of one scenario report row."""
    row = dict(row)
    stats = dict(row["sim_stats"])
    if strip_audit:
        stats.pop("audit_checks", None)
        stats.pop("violations", None)
    row["sim_stats"] = stats
    return pickle.dumps(row)


# ----------------------------------------------------------------------
# fig7: serial vs parallel vs audited
# ----------------------------------------------------------------------
def test_fig7_serial_parallel_byte_identical():
    serial = run_figure("fig7", duration=DURATION, warmup=WARMUP, cases=(1,))
    parallel = run_figure("fig7", duration=DURATION, warmup=WARMUP,
                          cases=(1,), workers=2)
    assert _fig7_bytes(serial[1]) == _fig7_bytes(parallel[1])


def test_fig7_audited_byte_identical_and_audit_ran():
    plain = run_figure("fig7", duration=DURATION, warmup=WARMUP, cases=(1,))
    audited = run_figure("fig7", duration=DURATION, warmup=WARMUP,
                         cases=(1,), audited=True)
    # The auditor's packet/event/deliver hooks all fired...
    assert audited[1].stats["audit_checks"] > 0
    assert audited[1].stats["violations"] == 0
    # ...yet every measurement byte matches the hook-free run.
    assert (_fig7_bytes(plain[1])
            == _fig7_bytes(audited[1], strip_audit=True))


# ----------------------------------------------------------------------
# scenario: plain vs audited
# ----------------------------------------------------------------------
def test_scenario_audited_byte_identical_and_audit_ran():
    name = "waxman-churn"
    plain = run_scenario(get_scenario(name, duration=DURATION,
                                      warmup=WARMUP))
    audited = run_scenario(get_scenario(name, duration=DURATION,
                                        warmup=WARMUP, audited=True))
    assert audited["sim_stats"]["audit_checks"] > 0
    assert audited["sim_stats"]["violations"] == 0
    assert (_scenario_bytes(plain)
            == _scenario_bytes(audited, strip_audit=True))


# ----------------------------------------------------------------------
# gateway enqueue hooks: fast path must not skip installed observers
# ----------------------------------------------------------------------
def _restricted_run(seed=7, hook_counts=None):
    """One small symmetric run; optionally install enqueue/drop hooks."""
    spec = RestrictedSpec(mu_pps=[200, 200])
    sim = Simulator(seed=seed)
    net, receivers = build_restricted(sim, spec)
    gateways = [link.gateway for link in net.links.values()]
    if hook_counts is not None:
        def enqueue_hook(now, packet, depth):
            hook_counts["enqueue"] += 1

        def drop_hook(now, packet, reason):
            hook_counts["drop"] += 1

        for gateway in gateways:
            gateway.on_enqueue(enqueue_hook)
            gateway.on_drop(drop_hook)
    flows = [TcpFlow(sim, net, f"tcp-{i}", "S", receiver,
                     config=TcpConfig())
             for i, receiver in enumerate(receivers)]
    for i, flow in enumerate(flows):
        flow.start(0.1 * i)
    sim.run(until=WARMUP)
    for flow in flows:
        flow.mark()
    sim.run(until=WARMUP + DURATION)
    return pickle.dumps((
        sim.events_executed,
        [flow.report() for flow in flows],
        [(gw.dropped, gw.peak_depth) for gw in gateways],
    ))


def test_enqueue_hooks_fire_and_do_not_change_results():
    counts = {"enqueue": 0, "drop": 0}
    without = _restricted_run()
    with_hooks = _restricted_run(hook_counts=counts)
    # Installed hooks actually observed traffic (fast path not taken)...
    assert counts["enqueue"] > 100
    # ...and observing changed nothing.
    assert without == with_hooks
