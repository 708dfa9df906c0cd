"""ECN extension: RED marking and end-to-end sender reactions."""

import random

import pytest

from repro.net.network import GatewayFactory, Network
from repro.net.packet import DATA, Packet
from repro.net.red import REDQueue
from repro.rla.config import RLAConfig
from repro.rla.session import RLASession
from repro.sim.engine import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.flow import TcpFlow
from repro.units import ms, pps_to_bps


def _pkt(seq, ect=True):
    packet = Packet(DATA, "f", "A", "B", seq, 1000)
    packet.ect = ect
    return packet


def test_red_marks_instead_of_dropping():
    queue = REDQueue(capacity=1000, min_th=5, max_th=15, w_q=1.0, max_p=0.5,
                     rng=random.Random(1), mark_ecn=True)
    marked = 0
    for seq in range(200):
        packet = _pkt(seq)
        queue.enqueue(0.0, packet)
        if packet.ce:
            marked += 1
    assert queue.ecn_marks == marked
    assert marked > 0
    assert queue.early_drops == 0  # every early notification became a mark


def test_red_drops_non_ect_packets():
    queue = REDQueue(capacity=1000, min_th=5, max_th=15, w_q=1.0, max_p=0.5,
                     rng=random.Random(1), mark_ecn=True)
    for seq in range(200):
        queue.enqueue(0.0, _pkt(seq, ect=False))
    assert queue.ecn_marks == 0
    assert queue.early_drops > 0


def test_red_forced_region_still_drops():
    queue = REDQueue(capacity=1000, min_th=2, max_th=4, w_q=1.0,
                     rng=random.Random(1), mark_ecn=True)
    for seq in range(50):
        queue.enqueue(0.0, _pkt(seq))
    assert queue.forced_drops > 0


def _ecn_net(sim, rate_pps=200):
    net = Network(sim)
    factory = GatewayFactory("red", sim, mark_ecn=True)
    net.add_link("A", "B", pps_to_bps(rate_pps), ms(50), queue_factory=factory)
    net.build_routes()
    return net


def test_tcp_ecn_cuts_without_losses_dominating():
    sim = Simulator(seed=3)
    net = _ecn_net(sim)
    flow = TcpFlow(sim, net, "tcp-0", "A", "B", config=TcpConfig(ecn=True))
    flow.start()
    sim.run(until=10.0)
    flow.mark()
    sim.run(until=90.0)
    report = flow.report()
    sender = flow.sender
    assert sender.ecn_cuts > 0
    # marking replaces most early drops: far fewer retransmissions than
    # cuts, and the link still runs near capacity
    assert report["retransmits"] < sender.ecn_cuts
    assert report["throughput_pps"] == pytest.approx(200, rel=0.15)


def test_tcp_without_ecn_is_unaffected_by_marking_gateway():
    sim = Simulator(seed=3)
    net = _ecn_net(sim)
    flow = TcpFlow(sim, net, "tcp-0", "A", "B", config=TcpConfig(ecn=False))
    flow.start()
    sim.run(until=60.0)
    assert flow.sender.ecn_cuts == 0
    assert flow.sender.retransmits > 0  # congestion shows up as drops


def test_rla_reacts_to_ecn_marks():
    sim = Simulator(seed=4)
    net = Network(sim)
    factory = GatewayFactory("red", sim, mark_ecn=True)
    net.add_link("S", "G", pps_to_bps(2000), ms(5))
    for i in (1, 2):
        net.add_link("G", f"R{i}", pps_to_bps(200), ms(50),
                     queue_factory=factory)
    net.build_routes()
    session = RLASession(sim, net, "rla-0", "S", ["R1", "R2"],
                         config=RLAConfig(ecn=True))
    session.start()
    sim.run(until=10.0)
    session.mark()
    sim.run(until=90.0)
    report = session.report()
    assert report["congestion_signals"] > 0
    assert report["window_cuts"] > 0
    # with marking, repairs are rare relative to signals
    assert (report["rtx_multicast"] + report["rtx_unicast"]
            < report["congestion_signals"])
    assert report["throughput_pps"] == pytest.approx(200, rel=0.2)
