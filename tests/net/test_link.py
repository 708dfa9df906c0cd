"""Link timing: serialization, propagation, queue interaction."""

import pytest

from repro.errors import ConfigurationError
from repro.net.droptail import DropTailQueue
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import DATA, Packet
from repro.sim.engine import Simulator
from repro.units import pps_to_bps


class _Catcher(Node):
    """Node that records packet arrival times."""

    def __init__(self, node_id, sim):
        super().__init__(node_id)
        self.sim = sim
        self.times = []

    def receive(self, packet):
        self.times.append((self.sim.now, packet.seq))


def _link(sim, rate_pps=200, delay=0.1, capacity=20):
    src = Node("A")
    dst = _Catcher("B", sim)
    link = Link(sim, "A->B", src, dst, pps_to_bps(rate_pps), delay,
                DropTailQueue(capacity))
    return link, dst


def test_single_packet_timing():
    sim = Simulator()
    link, dst = _link(sim, rate_pps=200, delay=0.1)
    link.send(Packet(DATA, "f", "A", "B", 0, 1000))
    sim.run()
    # 5 ms serialization + 100 ms propagation
    assert dst.times == [(pytest.approx(0.105), 0)]


def test_back_to_back_packets_are_serialized():
    sim = Simulator()
    link, dst = _link(sim, rate_pps=200, delay=0.0)
    for seq in range(3):
        link.send(Packet(DATA, "f", "A", "B", seq, 1000))
    sim.run()
    times = [t for t, _ in dst.times]
    assert times == pytest.approx([0.005, 0.010, 0.015])


def test_throughput_never_exceeds_capacity():
    sim = Simulator()
    link, dst = _link(sim, rate_pps=200, delay=0.0, capacity=1000)
    for seq in range(500):
        link.send(Packet(DATA, "f", "A", "B", seq, 1000))
    sim.run(until=1.0)
    assert len(dst.times) <= 200 + 1


def test_drops_when_queue_overflows():
    sim = Simulator()
    link, dst = _link(sim, rate_pps=200, delay=0.0, capacity=5)
    for seq in range(20):
        link.send(Packet(DATA, "f", "A", "B", seq, 1000))
    sim.run()
    # 1 in service + 5 queued survive the burst
    assert len(dst.times) == 6
    assert link.gateway.dropped == 14


def test_small_packets_serialize_faster():
    sim = Simulator()
    link, dst = _link(sim, rate_pps=200, delay=0.0)
    link.send(Packet(DATA, "f", "A", "B", 0, 40))  # an ACK
    sim.run()
    assert dst.times[0][0] == pytest.approx(0.005 * 40 / 1000)


def test_utilization():
    sim = Simulator()
    link, dst = _link(sim, rate_pps=200, delay=0.0, capacity=1000)
    for seq in range(100):
        link.send(Packet(DATA, "f", "A", "B", seq, 1000))
    sim.run(until=1.0)
    assert link.utilization(1.0) == pytest.approx(0.5, rel=0.05)


def test_utilization_counts_packet_in_service():
    # Regression: bytes_sent is credited at serialization *end*, so a read
    # mid-transmission used to undercount — a fully busy wire measured
    # over a short window reported 0 instead of 1.
    sim = Simulator()
    link, _dst = _link(sim, rate_pps=200, delay=0.0)
    link.send(Packet(DATA, "f", "A", "B", 0, 1000))  # 5 ms serialization
    readings = []
    sim.schedule(0.0025, lambda: readings.append(link.utilization(0.0025)))
    sim.run()
    assert link.busy is False  # transmission completed by the end
    assert readings == [pytest.approx(1.0)]


def test_utilization_in_service_credit_is_capped():
    # The in-service credit must never exceed the packet's own size nor
    # push utilization above 1.0 (e.g. right at serialization boundaries).
    sim = Simulator()
    link, _dst = _link(sim, rate_pps=200, delay=0.0)
    for seq in range(3):
        link.send(Packet(DATA, "f", "A", "B", seq, 1000))
    readings = []
    sim.schedule(0.012, lambda: readings.append(link.utilization(0.012)))
    sim.run()
    assert readings == [pytest.approx(1.0)]
    assert link.utilization(0.015) == pytest.approx(1.0)


def test_mean_pkt_time_installed_on_gateway():
    sim = Simulator()
    link, _ = _link(sim, rate_pps=200)
    assert link.gateway.mean_pkt_time == pytest.approx(0.005)


def test_mean_pkt_time_follows_configured_packet_size():
    """Regression: attach used to hardcode DEFAULT_PACKET_SIZE.

    A link provisioned for 500-byte packets told its gateway the service
    time of 1000-byte ones, so RED idle aging (and PIE's delay estimate)
    ran at half speed on any non-default-MTU link.
    """
    sim = Simulator()
    link = Link(sim, "A->B", Node("A"), _Catcher("B", sim),
                pps_to_bps(200), 0.1, DropTailQueue(20),
                mean_packet_size=500)
    # 200 pps is sized for 1000-byte packets; 500-byte ones take half.
    assert link.gateway.mean_pkt_time == pytest.approx(0.0025)
    assert link.mean_packet_size == 500


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        Link(sim, "bad", Node("A"), Node("B"), 0.0, 0.1, DropTailQueue(5))
    with pytest.raises(ConfigurationError):
        Link(sim, "bad", Node("A"), Node("B"), 1e6, -1.0, DropTailQueue(5))
    with pytest.raises(ConfigurationError):
        Link(sim, "bad", Node("A"), Node("B"), 1e6, 0.1, DropTailQueue(5),
             mean_packet_size=0)


@pytest.mark.parametrize("bandwidth, delay", [
    (float("nan"), 0.1), (1e6, float("nan")), (1e6, float("inf")),
])
def test_non_finite_parameters_rejected(bandwidth, delay):
    # `nan <= 0` and `nan < 0` are False: the old guards let these through
    # and every event on the link was then scheduled at a NaN/inf time
    with pytest.raises(ConfigurationError):
        Link(Simulator(), "bad", Node("A"), Node("B"), bandwidth, delay,
             DropTailQueue(5))


# ----------------------------------------------------------------------
# Exact float ties between an arrival and a departure.
#
# On pipelined equal-bandwidth links a packet reaches a node at the very
# instant its predecessor finishes serialising on the next link:
# (x + d) + tx == (x + tx) + d.  Which of the two events runs first is
# decided by the engine's sequence numbers — the order in which the two
# were *scheduled* — and a drop-tail outcome hangs on it (§3's phase
# effects).  These tests pin that order; it is what a "one event per hop"
# link would have to reproduce and cannot (docs/PERFORMANCE.md,
# "Rejected: one event per hop").  All quantities are powers of two, so
# the ties are exact, not approximate.
# ----------------------------------------------------------------------
_BW = 8_192_000        # b/s: a 1000-byte packet serialises in 2**-10 s
_TX = 2.0 ** -10
_LAST_HOP = 2.0 ** -6  # delay of the link(s) after the tie


def _events_at(sim, instant):
    """Names of the events executed at exactly ``instant`` (in order)."""
    names = []

    def hook(event):
        if event.time == instant:
            names.append(event.name)

    sim.event_hook = hook
    return names


@pytest.mark.parametrize("delay, first, second, delivered, dropped", [
    # delay > tx: the arrival was scheduled first (at 2 tx, when p1 left
    # A) and beats the departure (scheduled at tx + delay): queue still full
    (2.0 ** -8, "A->B.rx", "B->C.tx", [0, 99], [1]),
    # delay < tx: the departure was scheduled first (at tx + delay) and
    # frees the slot before p1 (scheduled at 2 tx) asks for it
    (2.0 ** -12, "B->C.tx", "A->B.rx", [0, 99, 1], []),
])
def test_tie_between_arrival_and_departure_at_a_full_gateway(
        delay, first, second, delivered, dropped):
    sim = Simulator()
    a, b, c = Node("A"), Node("B"), _Catcher("C", sim)
    hop1 = Link(sim, "A->B", a, b, _BW, delay, DropTailQueue(20))
    hop2 = Link(sim, "B->C", b, c, _BW, _LAST_HOP, DropTailQueue(1))
    a.add_route("C", hop1)
    b.add_route("C", hop2)
    drops = []
    hop2.gateway.on_drop(
        lambda now, packet, reason: drops.append((now, packet.seq, reason)))

    tie = 2 * _TX + delay  # p0 leaves B's transmitter as p1 reaches B
    at_tie = _events_at(sim, tie)
    for seq in (0, 1):  # back to back on the first hop
        a.send(Packet(DATA, "f", "A", "C", seq, 1000))
    # a cross packet takes B's single queue slot while p0 is serialising
    sim.schedule(tie - _TX / 2, hop2.send,
                 Packet(DATA, "x", "B", "C", 99, 1000))
    sim.run()

    assert at_tie == [first, second]  # an exact tie, in this order
    assert [seq for _, seq in c.times] == delivered
    assert drops == [(tie, seq, "overflow") for seq in dropped]


@pytest.mark.parametrize("delay, order", [
    # arrival first: the R2 copy finds its branch busy, waits for the
    # departure at the same instant, and leaves behind the R3 copy
    (2.0 ** -8, ["R1", "R3", "R2"]),
    # departure first: all three branches idle, copies leave in fan-out order
    (2.0 ** -12, ["R1", "R2", "R3"]),
])
def test_fanout_order_when_a_branch_frees_at_the_arrival_instant(delay, order):
    sim = Simulator()
    s, g = Node("S"), Node("G")
    up = Link(sim, "S->G", s, g, _BW, delay, DropTailQueue(20))
    s.add_route("R2", up)
    s.add_mcast_route("group:g", up)
    log = []
    for name in ("R1", "R2", "R3"):
        branch = Link(sim, f"G->{name}", g, Node(name), _BW, _LAST_HOP,
                      DropTailQueue(20))
        branch.on_deliver(lambda now, packet, name=name:
                          log.append((now, name, packet.flow)))
        g.add_route(name, branch)
        g.add_mcast_route("group:g", branch)

    tie = 2 * _TX + delay
    at_tie = _events_at(sim, tie)
    # a unicast packet keeps branch R2 busy until exactly the instant the
    # multicast packet queued behind it on S->G reaches the fan-out node
    s.send(Packet(DATA, "u", "S", "R2", 0, 1000))
    s.send(Packet(DATA, "m", "S", "group:g", 0, 1000))
    sim.run()

    assert sorted(at_tie) == ["G->R2.tx", "S->G.rx"]
    copies = [(now, name) for now, name, flow in log if flow == "m"]
    assert [now for now, _ in copies] == [tie + _TX + _LAST_HOP] * 3
    assert [name for _, name in copies] == order
