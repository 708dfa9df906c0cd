"""ConservationAuditor: clean runs balance; injected faults are caught.

The fault-injection tests damage a running simulation the way a real bug
would (a packet silently vanishing from a queue, a duplicate delivery, a
corrupted reach count) and assert the auditor raises a structured
:class:`InvariantViolation` naming the right check.
"""

import pytest

from repro.audit import (
    ConservationAuditor,
    FlightRecorder,
    InvariantMonitor,
    InvariantViolation,
)
from repro.net.packet import DATA, Packet, install_creation_hook, \
    uninstall_creation_hook
from repro.rla.session import RLASession
from repro.tcp.flow import TcpFlow


@pytest.fixture
def audited(sim):
    recorder = FlightRecorder()
    monitor = InvariantMonitor(recorder)
    auditor = ConservationAuditor(sim, monitor=monitor, recorder=recorder)
    yield auditor
    auditor.detach()


def test_clean_tcp_run_conserves(sim, two_node_net, audited):
    audited.attach(two_node_net)
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B", limit=50)
    flow.start()
    sim.run()
    audited.verify()
    ledger = audited.flow_summary()["tcp-0"]
    assert ledger["injected"] == (
        ledger["delivered"] + ledger["sunk"] + ledger["replicated"]
        + ledger["dropped"] + ledger["in_flight"]
    )
    assert ledger["in_flight"] == 0  # event queue drained
    assert ledger["delivered"] > 50  # data one way, ACKs back
    assert audited.monitor.violation_count == 0


def test_multicast_replication_is_not_a_leak(sim, star_net, audited):
    audited.attach(star_net)
    session = RLASession(sim, star_net, "rla-0", "S", ["R1", "R2", "R3"])
    session.start()
    sim.run(until=5.0)
    audited.verify()
    ledger = audited.flow_summary()["rla-0"]
    # Each data packet consumed at the fan-out gateway G becomes three
    # fresh copies; the original must be accounted as replicated.
    assert ledger["replicated"] > 0
    assert audited.monitor.violation_count == 0


def test_mid_run_verify_accounts_in_flight(sim, two_node_net, audited):
    audited.attach(two_node_net)
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    sim.run(until=2.0)  # stop at a horizon: packets queued and on the wire
    audited.verify()
    assert audited.in_flight() > 0
    assert audited.monitor.violation_count == 0


def _queued_link(auditor, net):
    """A link that currently has at least one queued packet."""
    for link in net.links.values():
        if link.gateway.depth > 0:
            return link
    raise AssertionError("no queued packet anywhere; slow the test link down")


def test_leaked_packet_is_detected(sim, two_node_net, audited):
    audited.attach(two_node_net)
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    sim.run(until=2.0)
    link = _queued_link(audited, two_node_net)
    gateway = link.gateway
    victim = gateway.contents()[-1]
    # Simulate a perfectly disguised leak: the packet vanishes from the
    # queue AND the bookkeeping is patched to hide it.  Only the physical
    # contents comparison can catch this.
    gateway._queue.remove(victim)
    gateway.dequeued += 1
    gateway.bytes_queued -= victim.size
    with pytest.raises(InvariantViolation) as exc_info:
        audited.verify()
    violation = exc_info.value
    assert violation.check == "conservation.queue_contents"
    assert victim.uid in violation.context["leaked"]
    assert "flight recorder" in str(violation)


def test_unpatched_leak_caught_by_gateway_bookkeeping(sim, two_node_net, audited):
    audited.attach(two_node_net)
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    sim.run(until=2.0)
    gateway = _queued_link(audited, two_node_net).gateway
    gateway._queue.remove(gateway.contents()[-1])  # naive leak
    with pytest.raises(InvariantViolation) as exc_info:
        audited.verify()
    assert exc_info.value.check == "gateway.depth_consistent"


def test_double_delivery_is_detected(sim, two_node_net, audited):
    audited.attach(two_node_net)
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    delivered = []
    link = two_node_net.links[("A", "B")]
    link.on_deliver(lambda _now, packet: delivered.append(packet))
    sim.run(until=2.0)
    assert delivered
    with pytest.raises(InvariantViolation) as exc_info:
        link._arrive(delivered[0])  # the wire hands over the same packet twice
    assert exc_info.value.check == "conservation.single_delivery"


def test_smuggled_packet_is_detected(sim, two_node_net, audited):
    audited.attach(two_node_net)
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    sim.run(until=2.0)
    gateway = _queued_link(audited, two_node_net).gateway
    # A packet materializes in the queue without passing the enqueue path
    # (bookkeeping patched to match, as a buggy discipline would).
    forged = Packet(DATA, "tcp-0", "A", "B", 999, 1000)
    gateway._queue.append(forged)
    gateway.enqueued += 1
    gateway.bytes_queued += forged.size
    with pytest.raises(InvariantViolation) as exc_info:
        audited.verify()
    violation = exc_info.value
    assert violation.check == "conservation.queue_contents"
    assert forged.uid in violation.context["smuggled"]


def test_double_attach_rejected(sim, two_node_net, audited):
    audited.attach(two_node_net)
    with pytest.raises(RuntimeError):
        audited.attach(two_node_net)


def test_creation_hook_is_exclusive(sim, two_node_net, audited):
    audited.attach(two_node_net)
    with pytest.raises(RuntimeError):
        install_creation_hook(lambda packet: None)
    audited.detach()
    # After detach the slot is free again.
    probe = []
    install_creation_hook(probe.append)
    try:
        Packet(DATA, "f", "A", "B", 0, 100)
        assert len(probe) == 1
    finally:
        uninstall_creation_hook(probe.append)
