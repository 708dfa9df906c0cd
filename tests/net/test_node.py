"""Node forwarding: unicast routes, multicast replication, agent delivery."""

import pytest

from repro.errors import RoutingError
from repro.net.network import GatewayFactory, Network
from repro.net.packet import DATA, Packet
from repro.sim.engine import Simulator
from repro.units import mbps, ms


def _net(sim):
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 50))
    net.add_link("A", "B", mbps(10), ms(1))
    net.add_link("B", "C", mbps(10), ms(1))
    net.add_link("B", "D", mbps(10), ms(1))
    net.build_routes()
    return net


def test_unicast_forwarding_via_route(sim):
    net = _net(sim)
    got = []
    net.node("C").bind("f", lambda pkt: got.append(pkt.seq))
    net.node("A").send(Packet(DATA, "f", "A", "C", 1, 100))
    sim.run()
    assert got == [1]


def test_no_route_raises(sim):
    net = _net(sim)
    with pytest.raises(RoutingError):
        net.node("A").receive(Packet(DATA, "f", "A", "Z", 0, 100))


def test_unbound_flow_is_sunk_silently(sim):
    net = _net(sim)
    fates = []
    net.node("C").on_consume(lambda pkt, outcome: fates.append(outcome))
    net.node("A").send(Packet(DATA, "nobody", "A", "C", 0, 100))
    sim.run()  # no exception
    assert fates == ["sunk"]


def test_double_bind_rejected(sim):
    net = _net(sim)
    net.node("C").bind("f", lambda pkt: None)
    with pytest.raises(RoutingError):
        net.node("C").bind("f", lambda pkt: None)


def test_unbind_allows_rebind(sim):
    net = _net(sim)
    net.node("C").bind("f", lambda pkt: None)
    net.node("C").unbind("f")
    net.node("C").bind("f", lambda pkt: None)


def test_multicast_replication(sim):
    net = _net(sim)
    net.join_group("group:g", "A", ["C", "D"])
    got = {"C": [], "D": []}
    net.node("C").bind("m", lambda pkt: got["C"].append(pkt.uid))
    net.node("D").bind("m", lambda pkt: got["D"].append(pkt.uid))
    net.node("A").send(Packet(DATA, "m", "A", "group:g", 0, 100))
    sim.run()
    assert len(got["C"]) == 1 and len(got["D"]) == 1
    # replication produced distinct packet instances
    assert got["C"][0] != got["D"][0]


def test_multicast_delivers_to_interior_member(sim):
    net = _net(sim)
    net.join_group("group:g", "A", ["B", "C"])
    got = []
    net.node("B").bind("m", lambda pkt: got.append("B"))
    net.node("C").bind("m", lambda pkt: got.append("C"))
    net.node("A").send(Packet(DATA, "m", "A", "group:g", 0, 100))
    sim.run()
    assert sorted(got) == ["B", "C"]


def test_multicast_no_duplicate_branch_entries(sim):
    net = _net(sim)
    net.join_group("group:g", "A", ["C"])
    net.join_group("group:g", "A", ["C"])  # joining twice must not duplicate
    got = []
    net.node("C").bind("m", lambda pkt: got.append(pkt.seq))
    net.node("A").send(Packet(DATA, "m", "A", "group:g", 0, 100))
    sim.run()
    assert got == [0]
