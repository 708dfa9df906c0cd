"""The audit diet against the pre-PR audit layer (``reference.py``).

PR 17 stopped *describing* every audited hop (context dicts, record dicts,
a queued-uid mirror) and builds that text only when a check fails or a
record is read.  Nothing observable may move: the same seeded run must
count the same checks, retain the same flight-recorder records, print the
same dump and ledgers and report pickle under both implementations, and an
injected fault must raise — or, non-strict, collect — the very same
:class:`InvariantViolation` (check, time, context, dump).

Both sides are armed at the one construction point, ``repro.audit.arm``.
"""

from __future__ import annotations

import importlib.util
import pickle
import sys
from pathlib import Path

import pytest

import repro.audit
from repro.audit import InvariantViolation
from repro.experiments.figures import run_figure
from repro.experiments.sweeps import SymmetricSpec, run_symmetric_spec
from repro.net.network import GatewayFactory, Network
from repro.net.packet import (
    DATA,
    Packet,
    restore_uid_counter,
    uid_counter_state,
)
from repro.rla.session import RLASession
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.grid import grid_cell
from repro.sim.engine import Simulator
from repro.tcp.flow import TcpFlow
from repro.units import ms, pps_to_bps


def _load_reference():
    # By path under a private name: tests/fluid has a ``reference`` module
    # too, and both test directories sit on sys.path at collection.
    spec = importlib.util.spec_from_file_location(
        "audit_reference", Path(__file__).with_name("reference.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


class _ReferenceAuditor(reference.ConservationAuditor):
    def disarm(self):
        self.detach()
        self.sim.event_hook = None


def reference_arm(sim, net):
    """``repro.audit.arm`` as every wiring site spelled it before PR 17."""
    recorder = reference.FlightRecorder()
    monitor = reference.InvariantMonitor(recorder)
    auditor = _ReferenceAuditor(sim, monitor=monitor, recorder=recorder)
    auditor.attach(net)
    sim.event_hook = recorder.observe_event
    return auditor


ARMS = {"diet": repro.audit.arm, "reference": reference_arm}


@pytest.fixture(autouse=True)
def _uid_counter_put_back():
    """Runs restart uids at 1 so both sides see the same ones."""
    before = uid_counter_state()
    yield
    restore_uid_counter(max(before, uid_counter_state()))


# ----------------------------------------------------------------------
# clean runs: everything an audited run exposes is equal
# ----------------------------------------------------------------------
def _fig7_case3():
    result = run_figure("fig7", duration=2.0, warmup=1.0, seed=3,
                        cases=(3,), audited=True)[3]
    return (result.rla, result.tcp, result.tiers, result.receivers,
            result.stats)


def _sweep_n4():
    return run_symmetric_spec(SymmetricSpec(
        n_receivers=4, share_pps=100.0, buffer_pkts=20, duration=3.0,
        warmup=1.0, seed=1, gateway="droptail", audited=True))


def _scenario(name):
    return lambda: run_scenario(
        get_scenario(name, duration=2.0, warmup=0.5, audited=True))


def _codel_cell(ecn, live):
    """A CoDel + trimodal grid cell; ``live`` names the stat only this kind
    of cell exercises (dequeue-time evictions, i.e. queued -> dropped, with
    ECN off; CE marks with it on — CoDel marks instead of evicting)."""
    def run():
        row = run_scenario(grid_cell("codel", "trimodal", "wide", ecn,
                                     duration=2.5, warmup=0.5, audited=True))
        assert row["sim_stats"][live] > 0
        return row
    return run


RUNS = {
    "fig7-case3": _fig7_case3,
    "sweep-n4": _sweep_n4,
    "tree-churn": _scenario("tree-churn"),
    "waxman-churn": _scenario("waxman-churn"),
    "codel-trimodal": _codel_cell(False, "evicted"),
    "codel-ecn-trimodal": _codel_cell(True, "ecn_marks"),
}


def _observe(run, arm, monkeypatch):
    """Everything an audited ``run`` exposes, armed through ``arm``."""
    armed = []

    def capturing_arm(sim, net):
        armed.append(arm(sim, net))
        return armed[-1]

    monkeypatch.setattr(repro.audit, "arm", capturing_arm)
    restore_uid_counter(1)
    report = run()
    (auditor,) = armed
    recorder = auditor.recorder
    return {
        "report": pickle.dumps(report),
        "checks_run": auditor.monitor.checks_run,
        "violations": auditor.monitor.violation_count,
        "recorded": recorder.recorded,
        "len": len(recorder),
        "records": recorder.records,
        "dump": recorder.dump(),
        "dump_tail": recorder.dump(last=7),
        "flow_summary": auditor.flow_summary(),
        "link_summary": auditor.link_summary(),
        "link_counts": auditor.link_counts,
        "in_flight": auditor.in_flight(),
    }


@pytest.mark.parametrize("name", RUNS)
def test_clean_run_observes_the_same(name, monkeypatch):
    diet = _observe(RUNS[name], ARMS["diet"], monkeypatch)
    old = _observe(RUNS[name], ARMS["reference"], monkeypatch)
    assert diet["checks_run"] > 1000 and diet["recorded"] > 1000
    assert diet["violations"] == 0
    for key in old:
        assert diet[key] == old[key], key
    # key *order* is what JSONL rows and pickles see
    assert list(diet["link_summary"]) == list(old["link_summary"])
    for link, ledger in old["link_summary"].items():
        assert list(diet["link_summary"][link]) == list(ledger)
    assert (pickle.dumps((diet["flow_summary"], diet["link_summary"]))
            == pickle.dumps((old["flow_summary"], old["link_summary"])))


# ----------------------------------------------------------------------
# injected faults: the same violation, strict and collected
# ----------------------------------------------------------------------
def _two_node(sim):
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("A", "B", pps_to_bps(200), ms(50))
    net.build_routes()
    return net


def _star(sim):
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("S", "G", pps_to_bps(20_000), ms(5),
                 queue_factory=GatewayFactory("droptail", sim, 200))
    for i in (1, 2, 3):
        net.add_link("G", f"R{i}", pps_to_bps(200), ms(50))
    net.build_routes()
    return net


class _TcpWorld:
    """A -> B bulk TCP under audit, paused at t = 2 s with a backlog."""

    def __init__(self, arm):
        self.sim = Simulator(seed=42)
        self.net = _two_node(self.sim)
        self.auditor = arm(self.sim, self.net)
        self.link = self.net.links[("A", "B")]
        self.delivered = []
        self.link.on_deliver(
            lambda _now, packet: self.delivered.append(packet))
        self.flow = TcpFlow(self.sim, self.net, "tcp-0", "A", "B")
        self.flow.sender.monitor = self.auditor.monitor
        self.flow.start()
        self.sim.run(until=2.0)
        assert self.link.gateway.depth > 0 and self.delivered


def skipped_enqueue_hook(arm):
    world = _TcpWorld(arm)
    gateway = world.link.gateway
    packet = Packet(DATA, "tcp-0", "A", "B", 999, 1000)
    hooks, gateway._enqueue_hooks = gateway._enqueue_hooks, []
    world.link.send(packet)  # queued, but no observer saw it go in
    gateway._enqueue_hooks = hooks
    return world, lambda: (world.sim.run(until=3.0),
                           world.auditor.verify())


def double_delivery(arm):
    world = _TcpWorld(arm)
    return world, lambda: (world.link._arrive(world.delivered[0]),
                           world.auditor.verify())


def smuggled_packet(arm):
    world = _TcpWorld(arm)
    gateway = world.link.gateway
    forged = Packet(DATA, "tcp-0", "A", "B", 999, 1000)
    gateway._queue.append(forged)
    gateway.enqueued += 1
    gateway.bytes_queued += forged.size
    return world, world.auditor.verify


def double_consume(arm):
    world = _TcpWorld(arm)
    node = world.net.nodes["B"]
    return world, lambda: (
        node._notify_consume(world.delivered[0], "eaten"),
        world.auditor.verify())


def leaked_packet(arm):
    world = _TcpWorld(arm)
    gateway = world.link.gateway
    victim = gateway.contents()[-1]
    gateway._queue.remove(victim)
    gateway.dequeued += 1
    gateway.bytes_queued -= victim.size
    return world, world.auditor.verify


def zero_cwnd(arm):
    world = _TcpWorld(arm)
    sender = world.flow.sender
    sender.cwnd = 0.0
    sender._lost = set(range(10**6, 10**6 + 500))  # pipe goes negative too
    return world, lambda: world.auditor.monitor.check_tcp(sender)


class _RlaWorld:
    def __init__(self, arm):
        self.sim = Simulator(seed=42)
        self.net = _star(self.sim)
        self.auditor = arm(self.sim, self.net)
        self.session = RLASession(self.sim, self.net, "rla-0", "S",
                                  ["R1", "R2", "R3"])
        self.session.sender.monitor = self.auditor.monitor
        self.session.start()
        self.sim.run(until=2.0)


def phantom_reach_count(arm):
    world = _RlaWorld(arm)
    reach = world.session.sender._reach
    for seq in range(10**6, 10**6 + 7):  # more than the 5 a context shows
        reach[seq] = 0
    reach[10**6 + 7] = 3  # == n_receivers: a missed completion
    return world, lambda: world.sim.run(until=2.5)


FAULTS = {
    fault.__name__: fault
    for fault in (skipped_enqueue_hook, double_delivery, smuggled_packet,
                  double_consume, leaked_packet, zero_cwnd,
                  phantom_reach_count)
}

#: What the first violation of each fault must be, under either layer.
FIRST_CHECK = {
    "skipped_enqueue_hook": "conservation.dequeue_from_queue",
    "double_delivery": "conservation.single_delivery",
    "smuggled_packet": "conservation.queue_contents",
    "double_consume": "conservation.consume_once",
    "leaked_packet": "conservation.queue_contents",
    "zero_cwnd": "tcp.cwnd_bounds",
    "phantom_reach_count": "rla.reach_bounds",
}


def _inject(fault, arm, strict):
    restore_uid_counter(1)
    world, trigger = fault(arm)
    monitor = world.auditor.monitor
    monitor.strict = strict
    raised = None
    try:
        trigger()
    except InvariantViolation as violation:
        raised = violation
    finally:
        world.auditor.disarm()
    assert (raised is not None) == strict
    if strict:
        assert monitor.violations == [raised]
    return {
        "violations": [(v.check, v.time, v.context, v.dump, str(v))
                       for v in monitor.violations],
        "checks_run": monitor.checks_run,
        "recorded": world.auditor.recorder.recorded,
        "link_summary": world.auditor.link_summary(),
        "flow_summary": world.auditor.flow_summary(),
    }


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "collect"])
@pytest.mark.parametrize("name", FAULTS)
def test_fault_raises_the_same_violation(name, strict):
    diet = _inject(FAULTS[name], ARMS["diet"], strict)
    old = _inject(FAULTS[name], ARMS["reference"], strict)
    assert old["violations"], "the fault went unnoticed"
    assert old["violations"][0][0] == FIRST_CHECK[name]
    assert "flight recorder" in old["violations"][0][4]
    if not strict and name in ("skipped_enqueue_hook", "double_delivery",
                               "double_consume", "zero_cwnd"):
        assert len(old["violations"]) > 1  # the survey kept going
    assert diet == old
