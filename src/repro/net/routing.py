"""Deterministic shortest-path routing on an insertion-ordered adjacency map.

The graph is a plain ``{node: {neighbour: weight}}`` dict of dicts (see
:func:`add_edge`); nodes iterate in the order they were first mentioned
and a node's neighbours in the order its links were added.

Tie-break rule (fixed here, independent of any library version): a
tentative distance is replaced only by a *strictly* smaller one,
neighbours are relaxed in link-insertion order, and the heap is keyed
``(distance, push counter)`` so equal distances settle in the order they
were pushed.  Among equal-cost paths the one found first therefore wins,
and node names are never compared.  Every shipped topology has unique
shortest paths, so the rule only matters for hand-built graphs with tied
weights.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Hashable, List, NamedTuple, Set

Node = Hashable
Adjacency = Dict[Node, Dict[Node, float]]


def add_edge(graph: Adjacency, a: Node, b: Node, weight: float) -> None:
    """Record the undirected edge a-b (re-adding it updates the weight)."""
    graph.setdefault(a, {})[b] = weight
    graph.setdefault(b, {})[a] = weight


class ShortestPaths(NamedTuple):
    """One single-source run over the nodes reachable from the source.

    ``dist`` and ``first_hop`` iterate in settling order — increasing
    distance, equal distances in the order their winning heap entries
    were pushed — starting with the source (distance 0, hop ``None``).
    ``pred`` maps every other reached node to its shortest-path parent.
    """

    dist: Dict
    pred: Dict
    first_hop: Dict


def dijkstra(graph: Adjacency, source: Node) -> ShortestPaths:
    """Single-source shortest paths from ``source`` (must be in ``graph``)."""
    tentative = {source: 0.0}
    dist: Dict = {}
    pred: Dict = {}
    first_hop: Dict = {source: None}
    pushes = 0
    fringe = [(0.0, pushes, source)]
    while fringe:
        d, _, v = heappop(fringe)
        if v in dist:
            continue  # a stale entry: v settled at a smaller distance
        dist[v] = d
        if v != source:
            first_hop[v] = v if pred[v] == source else first_hop[pred[v]]
        for u, weight in graph[v].items():
            through_v = d + weight
            if u not in tentative or through_v < tentative[u]:
                tentative[u] = through_v
                pred[u] = v
                pushes += 1
                heappush(fringe, (through_v, pushes, u))
    return ShortestPaths(dist, pred, first_hop)


def walk(pred: Dict[Node, Node], source: Node, target: Node) -> List[Node]:
    """Node sequence source..target along a ``pred`` map (target reached)."""
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def connected_components(graph: Adjacency) -> List[Set]:
    """Connected components, in order of each one's first-mentioned node."""
    seen: Set = set()
    components = []
    for start in graph:
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for v in queue:  # grows while iterated: breadth-first
            for u in graph[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        components.append(set(queue))
    return components
