"""InvariantMonitor: strict/collect modes and the domain sanity checks."""

import pytest

from repro.audit import FlightRecorder, InvariantMonitor, InvariantViolation
from repro.net.droptail import DropTailQueue
from repro.net.node import Node
from repro.rla.sender import RLASender
from repro.sim.engine import Simulator
from repro.tcp.sender import TcpSender


class _StubNode(Node):
    """Node that swallows outbound packets instead of routing them."""

    def __init__(self):
        super().__init__("S")

    def send(self, packet):
        pass


def stub_node():
    return _StubNode()


def test_require_passes_and_counts():
    monitor = InvariantMonitor()
    assert monitor.require("x.ok", True, 1.0) is True
    assert monitor.checks_run == 1
    assert monitor.violation_count == 0


def test_strict_raises_with_context():
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation) as exc_info:
        monitor.require("x.bad", False, 2.5, flow="tcp-0", value=7)
    violation = exc_info.value
    assert violation.check == "x.bad"
    assert violation.time == 2.5
    assert violation.context == {"flow": "tcp-0", "value": 7}
    assert "x.bad" in str(violation)
    assert "flow='tcp-0'" in str(violation)


def test_non_strict_collects():
    monitor = InvariantMonitor(strict=False)
    assert monitor.require("x.bad", False) is False
    assert monitor.require("x.bad2", False) is False
    assert monitor.violation_count == 2


def test_violation_carries_flight_recorder_dump():
    recorder = FlightRecorder()
    recorder.record(1.0, "enqueue", flow="tcp-0")
    monitor = InvariantMonitor(recorder)
    with pytest.raises(InvariantViolation) as exc_info:
        monitor.require("x.bad", False, 1.5)
    assert "flight recorder" in str(exc_info.value)
    assert "enqueue" in exc_info.value.dump


def test_check_tcp_clean_sender_passes():
    sim = Simulator()
    sender = TcpSender(sim, stub_node(), "tcp-0", "B")
    monitor = InvariantMonitor()
    monitor.check_tcp(sender)
    assert monitor.violation_count == 0


def test_check_tcp_catches_cwnd_out_of_bounds():
    sim = Simulator()
    sender = TcpSender(sim, stub_node(), "tcp-0", "B")
    sender.cwnd = sender.config.max_cwnd + 5
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation) as exc_info:
        monitor.check_tcp(sender)
    assert exc_info.value.check == "tcp.cwnd_bounds"


def test_check_tcp_catches_negative_pipe():
    sim = Simulator()
    sender = TcpSender(sim, stub_node(), "tcp-0", "B")
    sender._lost = {0, 1, 2}  # declared lost beyond anything outstanding
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation) as exc_info:
        monitor.check_tcp(sender)
    assert exc_info.value.check == "tcp.pipe_nonnegative"


def _rla(sim, n=3):
    return RLASender(sim, stub_node(), "rla-0", "group:rla-0",
                     [f"R{i}" for i in range(1, n + 1)])


def test_check_rla_clean_sender_passes():
    sim = Simulator()
    monitor = InvariantMonitor()
    monitor.check_rla(_rla(sim))
    assert monitor.violation_count == 0


def test_check_rla_catches_corrupt_reach_count():
    sim = Simulator()
    sender = _rla(sim, n=3)
    sender._reach[7] = sender.n_receivers + 3  # missed completion
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation) as exc_info:
        monitor.check_rla(sender)
    assert exc_info.value.check == "rla.reach_bounds"
    assert exc_info.value.context["bad_counts"] == {7: 6}


def test_check_gateway_consistent_passes():
    sim = Simulator()
    queue = DropTailQueue(4)
    monitor = InvariantMonitor()
    monitor.check_gateway("A->B", queue, sim.now)
    assert monitor.violation_count == 0


def test_check_gateway_catches_counter_drift():
    queue = DropTailQueue(4)
    queue.enqueued += 1  # counter says one packet, storage is empty
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation) as exc_info:
        monitor.check_gateway("A->B", queue, 0.0)
    assert exc_info.value.check == "gateway.depth_consistent"
