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
# Exact float ties between an arrival and the wire freeing.
#
# On pipelined equal-bandwidth links a packet reaches a node at the very
# instant its predecessor finishes serialising on the next link:
# (x + d) + tx == (x + tx) + d.  A drop-tail outcome can hang on which of
# the two goes first (§3's phase effects).  The rule (docs/SIMULATOR.md,
# "Links and queues"): the wire is free from the instant serialisation
# ends.  With nothing waiting there is no departure event at all, so the
# arrival finds the wire free.  With packets waiting, the link's wake-up
# was scheduled when the first of them was accepted, and the engine runs
# same-instant events in scheduling order: an arrival scheduled earlier
# (when its packet started serialising upstream) meets the full queue, one
# scheduled later finds the head gone.  All quantities are powers of two
# (or sums of two), so the ties are exact, not approximate.
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


def _chain(sim, delay):
    """A -> B -> C, the second hop's gateway one packet deep."""
    a, b, c = Node("A"), Node("B"), _Catcher("C", sim)
    hop1 = Link(sim, "A->B", a, b, _BW, delay, DropTailQueue(20))
    hop2 = Link(sim, "B->C", b, c, _BW, _LAST_HOP, DropTailQueue(1))
    a.add_route("C", hop1)
    b.add_route("C", hop2)
    drops = []
    hop2.gateway.on_drop(
        lambda now, packet, reason: drops.append((now, packet.seq, reason)))
    return a, b, c, drops


@pytest.mark.parametrize("delay, first, second, delivered, dropped", [
    # Either side of delay == tx.  The two-event link resolved these two
    # oppositely (with delay < tx its departure had been scheduled first);
    # here there is one outcome, because B->C's wake-up was scheduled when
    # the cross packet was accepted, after p1's arrival (scheduled at tx).
    (2.0 ** -8, "A->B.rx", "B->C.tx", [0, 99], [1]),
    (2.0 ** -12, "A->B.rx", "B->C.tx", [0, 99], [1]),
])
def test_tie_between_arrival_and_departure_at_a_full_gateway(
        delay, first, second, delivered, dropped):
    sim = Simulator()
    a, b, c, drops = _chain(sim, delay)
    tie = 2 * _TX + delay  # p0 leaves B's transmitter as p1 reaches B
    at_tie = _events_at(sim, tie)
    for seq in (0, 1):  # back to back on the first hop
        a.send(Packet(DATA, "f", "A", "C", seq, 1000))
    # a cross packet takes B's single queue slot while p0 is serialising
    sim.schedule(tie - _TX / 2, b.send,
                 Packet(DATA, "x", "B", "C", 99, 1000))
    sim.run()

    assert at_tie == [first, second]  # an exact tie, in this order
    assert [seq for _, seq in c.times] == delivered
    assert drops == [(tie, seq, "overflow") for seq in dropped]


@pytest.mark.parametrize("wake_first, delivered, dropped", [
    # B's queue filled before p0 started on A->B: the wake-up is older
    # than the arrival, frees the slot, and p0 queues behind x1
    (True, [10, 11, 0], []),
    # p0 started first: its arrival is older and meets the full queue
    (False, [10, 11], [0]),
])
def test_tie_between_arrival_and_an_earlier_armed_wake(
        wake_first, delivered, dropped):
    sim = Simulator()
    delay = 2.0 ** -12
    a, b, c, drops = _chain(sim, delay)
    tie = _TX + delay
    at_tie = _events_at(sim, tie)
    # x10 is 1250 bytes: it serialises in tx + delay, so B->C frees at the
    # instant p0 reaches B; x11 waits in B's single slot
    cross = [Packet(DATA, "x", "B", "C", 10, 1250),
             Packet(DATA, "x", "B", "C", 11, 1000)]
    first = Packet(DATA, "f", "A", "C", 0, 1000)
    if not wake_first:
        a.send(first)
    for packet in cross:
        b.send(packet)
    if wake_first:
        a.send(first)
    sim.run()

    names = ["B->C.tx", "A->B.rx"]
    assert at_tie == (names if wake_first else names[::-1])
    assert [seq for _, seq in c.times] == delivered
    assert drops == [(tie, seq, "overflow") for seq in dropped]


@pytest.mark.parametrize("delay, order", [
    # nothing waits on G->R2, so its freeing is no event (the two-event
    # link's departure came second with delay > tx and sent R2's copy
    # last): the copy finds the branch free, copies leave in fan-out order
    (2.0 ** -8, ["R1", "R2", "R3"]),
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

    assert at_tie == ["S->G.rx"]
    copies = [(now, name) for now, name, flow in log if flow == "m"]
    assert [now for now, _ in copies] == [tie + _TX + _LAST_HOP] * 3
    assert [name for _, name in copies] == order
