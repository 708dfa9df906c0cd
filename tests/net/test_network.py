"""Network builder: links, routing, path utilities."""

import pytest

from repro.errors import TopologyError
from repro.net.network import Network, droptail_factory, red_factory
from repro.net.red import REDQueue
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
    factory = red_factory(sim, capacity=20)
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


def test_droptail_factory_capacity():
    factory = droptail_factory(7)
    assert factory("x").capacity == 7
