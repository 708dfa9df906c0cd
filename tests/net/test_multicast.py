"""Multicast tree construction."""

import pytest

from repro.errors import TopologyError
from repro.net.multicast import shortest_path_tree, tree_edges
from repro.net.routing import add_edge


def _graph():
    graph = {}
    add_edge(graph, "S", "G1", 1.0)
    add_edge(graph, "G1", "G2", 1.0)
    add_edge(graph, "G1", "G3", 1.0)
    add_edge(graph, "G2", "R1", 1.0)
    add_edge(graph, "G2", "R2", 1.0)
    add_edge(graph, "G3", "R3", 1.0)
    return graph


def test_tree_covers_all_members():
    children = shortest_path_tree(_graph(), "S", ["R1", "R2", "R3"])
    edges = set(tree_edges(children))
    assert ("S", "G1") in edges
    assert ("G2", "R1") in edges and ("G2", "R2") in edges
    assert ("G3", "R3") in edges
    # shared trunk appears once
    assert len([e for e in edges if e == ("S", "G1")]) == 1


def test_member_equal_to_source_is_skipped():
    children = shortest_path_tree(_graph(), "S", ["S", "R1"])
    assert ("S", "G1") in tree_edges(children)


def test_interior_member_included():
    children = shortest_path_tree(_graph(), "S", ["G2", "R1"])
    edges = set(tree_edges(children))
    assert ("G1", "G2") in edges and ("G2", "R1") in edges


def test_empty_members_rejected():
    with pytest.raises(TopologyError):
        shortest_path_tree(_graph(), "S", [])


def test_unreachable_member_rejected():
    graph = _graph()
    graph["island"] = {}
    with pytest.raises(TopologyError):
        shortest_path_tree(graph, "S", ["island"])


def test_weights_respected():
    graph = {}
    add_edge(graph, "S", "A", 1.0)
    add_edge(graph, "A", "R", 1.0)
    add_edge(graph, "S", "R", 10.0)
    children = shortest_path_tree(graph, "S", ["R"])
    assert children == {"S": ["A"], "A": ["R"]}


def test_unknown_source_or_member_rejected():
    with pytest.raises(TopologyError):
        shortest_path_tree(_graph(), "nowhere", ["R1"])
    with pytest.raises(TopologyError):
        shortest_path_tree(_graph(), "S", ["nowhere"])


def test_children_follow_member_order_and_share_the_trunk_once():
    children = shortest_path_tree(_graph(), "S", ["R3", "R1", "R2"])
    assert list(children.items()) == [
        ("S", ["G1"]), ("G1", ["G3", "G2"]), ("G3", ["R3"]),
        ("G2", ["R1", "R2"]),
    ]
