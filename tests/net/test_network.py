"""Network builder: links, routing, path utilities."""

import pickle

import pytest

from repro.errors import TopologyError
from repro.net.network import GATEWAY_DISCIPLINES, GatewayFactory, Network
from repro.net.codel import CoDelQueue
from repro.net.droptail import DropTailQueue
from repro.net.pie import PIEQueue
from repro.net.red import AdaptiveREDQueue, REDQueue, red_thresholds
from repro.sim.engine import Simulator
from repro.units import mbps, ms


def test_add_node_idempotent(sim):
    net = Network(sim)
    a = net.add_node("A")
    assert net.add_node("A") is a


def test_unknown_node_raises(sim):
    net = Network(sim)
    with pytest.raises(TopologyError):
        net.node("missing")


def test_bidirectional_links_by_default(sim):
    net = Network(sim)
    forward, reverse = net.add_link("A", "B", mbps(1), ms(1))
    assert net.link("A", "B") is forward
    assert net.link("B", "A") is reverse


def test_unidirectional_link(sim):
    net = Network(sim)
    _, reverse = net.add_link("A", "B", mbps(1), ms(1), bidirectional=False)
    assert reverse is None
    with pytest.raises(TopologyError):
        net.link("B", "A")


def test_duplicate_link_rejected(sim):
    net = Network(sim)
    net.add_link("A", "B", mbps(1), ms(1))
    with pytest.raises(TopologyError):
        net.add_link("A", "B", mbps(1), ms(1))


def test_routes_follow_shortest_delay(sim):
    net = Network(sim)
    net.add_link("A", "B", mbps(1), ms(1))
    net.add_link("B", "C", mbps(1), ms(1))
    net.add_link("A", "C", mbps(1), ms(10))  # direct but slower
    net.build_routes()
    assert net.path("A", "C") == ["A", "B", "C"]
    assert net.node("A").routes["C"].dst.id == "B"


def test_path_delay(sim):
    net = Network(sim)
    net.add_link("A", "B", mbps(1), ms(2))
    net.add_link("B", "C", mbps(1), ms(3))
    net.build_routes()
    assert net.path_delay("A", "C") == pytest.approx(ms(5))


@pytest.mark.parametrize("a, b", [("A", "zz"), ("zz", "A"), ("A", "island"),
                                  ("island", "A")])
def test_path_to_unknown_or_unreachable_node_is_a_topology_error(sim, a, b):
    net = Network(sim)
    net.add_link("A", "B", mbps(1), ms(2))
    net.add_node("island")
    net.build_routes()
    with pytest.raises(TopologyError):
        net.path(a, b)
    with pytest.raises(TopologyError):
        net.path_delay(a, b)


def test_path_to_self(sim):
    net = Network(sim)
    net.add_link("A", "B", mbps(1), ms(2))
    assert net.path("A", "A") == ["A"]
    assert net.path_delay("A", "A") == 0.0


def test_red_factory_produces_seeded_queues(sim):
    factory = GatewayFactory("red", sim, capacity=20)
    queue_ab = factory("A->B")
    queue_ba = factory("B->A")
    assert isinstance(queue_ab, REDQueue)
    # different directions get independent RNG streams
    assert queue_ab.rng is not queue_ba.rng


def test_join_group_unreachable_member(sim):
    net = Network(sim)
    net.add_link("A", "B", mbps(1), ms(1))
    net.add_node("Z")
    net.build_routes()
    with pytest.raises(TopologyError):
        net.join_group("group:g", "A", ["Z"])


def test_droptail_factory_capacity(sim):
    factory = GatewayFactory("droptail", sim, 7)
    assert factory("x").capacity == 7


@pytest.mark.parametrize("discipline", GATEWAY_DISCIPLINES)
def test_gateway_factory_builds_every_discipline(sim, discipline):
    kinds = {"droptail": DropTailQueue, "red": REDQueue,
             "red-byte": REDQueue, "red-adaptive": AdaptiveREDQueue,
             "codel": CoDelQueue, "pie": PIEQueue}
    factory = GatewayFactory(discipline, sim, 12)
    gateway = factory("A->B")
    assert type(gateway) is kinds[discipline]
    assert gateway.capacity == 12
    assert getattr(gateway, "byte_mode", False) == (discipline == "red-byte")
    # a built Network keeps its factory: it must survive a snapshot
    assert pickle.loads(pickle.dumps(factory)).discipline == discipline


def test_byte_mode_red_scales_the_buffer_rule(sim):
    packet = GatewayFactory("red", sim, 40)("x")
    byte = GatewayFactory("red-byte", sim, 40, mean_packet_size=500)("x")
    assert (packet.min_th, packet.max_th) == red_thresholds(40)
    assert (byte.min_th, byte.max_th) == (500 * 10.0, 500 * 30.0)
