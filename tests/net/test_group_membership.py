"""Dynamic multicast group membership on the Network layer."""

import pytest

from repro.errors import TopologyError
from repro.net.network import GatewayFactory, Network
from repro.net.packet import DATA, Packet
from repro.units import ms, pps_to_bps


@pytest.fixture
def diamond(sim):
    """S - G - {C, D}: one replication point, two leaves."""
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("S", "G", pps_to_bps(1000), ms(5))
    net.add_link("G", "C", pps_to_bps(1000), ms(5))
    net.add_link("G", "D", pps_to_bps(1000), ms(5))
    net.build_routes()
    return net


def _deliveries(sim, net, members):
    got = {m: [] for m in members}
    for m in members:
        net.node(m).bind("m", lambda pkt, m=m: got[m].append(pkt.seq))
    net.node("S").send(Packet(DATA, "m", "S", "group:g", 0, 100))
    sim.run()
    return got


def test_rejoin_with_smaller_member_set_prunes_stale_branch(sim, diamond):
    net = diamond
    net.join_group("group:g", "S", ["C", "D"])
    net.join_group("group:g", "S", ["C"])  # D left between the two joins
    got = _deliveries(sim, net, ["C", "D"])
    assert got["C"] == [0]
    assert got["D"] == []  # the stale G->D branch must be gone
    assert "group:g" not in net.node("D").memberships


def test_exact_repeat_join_is_idempotent(sim, diamond):
    net = diamond
    net.join_group("group:g", "S", ["C", "D"])
    routes_before = {n: list(net.node(n).mcast_routes.get("group:g", []))
                     for n in net.nodes}
    net.join_group("group:g", "S", ["C", "D"])
    routes_after = {n: list(net.node(n).mcast_routes.get("group:g", []))
                    for n in net.nodes}
    assert routes_before == routes_after
    got = _deliveries(sim, net, ["C", "D"])
    assert got["C"] == [0] and got["D"] == [0]  # exactly once each


def test_join_dedupes_repeated_members(sim, diamond):
    net = diamond
    net.join_group("group:g", "S", ["C", "C", "C"])
    assert net.group_members("group:g") == ["C"]
    got = _deliveries(sim, net, ["C"])
    assert got["C"] == [0]


def test_add_member_grafts_new_leaf(sim, diamond):
    net = diamond
    net.join_group("group:g", "S", ["C"])
    net.add_member("group:g", "D")
    assert net.group_members("group:g") == ["C", "D"]
    got = _deliveries(sim, net, ["C", "D"])
    assert got["C"] == [0] and got["D"] == [0]


def test_add_member_is_idempotent(sim, diamond):
    net = diamond
    net.join_group("group:g", "S", ["C"])
    net.add_member("group:g", "C")
    assert net.group_members("group:g") == ["C"]


def test_leave_group_prunes_branch(sim, diamond):
    net = diamond
    net.join_group("group:g", "S", ["C", "D"])
    net.leave_group("group:g", "D")
    assert net.group_members("group:g") == ["C"]
    got = _deliveries(sim, net, ["C", "D"])
    assert got["C"] == [0]
    assert got["D"] == []
    assert "group:g" not in net.node("D").mcast_routes


def test_leave_group_nonmember_is_noop(sim, diamond):
    net = diamond
    net.join_group("group:g", "S", ["C"])
    net.leave_group("group:g", "D")
    assert net.group_members("group:g") == ["C"]


def test_leave_last_member_empties_tree(sim, diamond):
    net = diamond
    net.join_group("group:g", "S", ["C"])
    net.leave_group("group:g", "C")
    assert net.group_members("group:g") == []
    # no node keeps a forwarding entry for the empty group
    assert all("group:g" not in net.node(n).mcast_routes for n in net.nodes)


def test_add_member_unknown_group_or_node_raises(sim, diamond):
    net = diamond
    with pytest.raises(TopologyError):
        net.add_member("group:nope", "C")
    net.join_group("group:g", "S", ["C"])
    with pytest.raises(TopologyError):
        net.add_member("group:g", "Z")


def test_group_members_unknown_group_raises(sim, diamond):
    with pytest.raises(TopologyError):
        diamond.group_members("group:nope")
