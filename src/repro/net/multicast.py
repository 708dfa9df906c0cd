"""Multicast tree construction.

Given a source and a member set, we build the union of unicast shortest
paths (by propagation delay) from source to each member — i.e. a
source-based shortest-path tree, the same tree dense-mode protocols like
DVMRP/PIM-DM converge to on these topologies.  The tree is returned as a
parent/children structure so the network builder can install per-node
multicast forwarding entries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..errors import TopologyError
from .routing import Adjacency, dijkstra


def shortest_path_tree(
    graph: Adjacency,
    source: str,
    members: Iterable[str],
) -> Dict[str, List[str]]:
    """Return ``{node: [children...]}`` for the source-based multicast tree.

    ``graph`` is a :mod:`repro.net.routing` adjacency map weighted by
    propagation delay.  Every member must be reachable from ``source``;
    interior nodes may themselves be members.  One single-source run
    serves all members; parents and children appear in the order a
    member-by-member walk of the source->member paths first meets them.
    """
    members = list(members)
    if not members:
        raise TopologyError("multicast group with no members")
    if source not in graph:
        raise TopologyError(f"multicast source {source!r} is not in the graph")
    run = dijkstra(graph, source)
    children: Dict[str, List[str]] = {}
    attached = {source}
    for member in members:
        if member not in run.dist:
            raise TopologyError(f"member {member!r} unreachable from {source!r}")
        branch = []  # the not-yet-attached tail of source->member, bottom up
        node = member
        while node not in attached:
            attached.add(node)
            branch.append(node)
            node = run.pred[node]
        for child in reversed(branch):
            children.setdefault(run.pred[child], []).append(child)
    return children


def tree_edges(children: Dict[str, List[str]]) -> List[Tuple[str, str]]:
    """Flatten a children map into a list of (parent, child) edges."""
    return [(parent, child) for parent, kids in children.items() for child in kids]
