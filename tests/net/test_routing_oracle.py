"""repro.net.routing against its two oracles.

1. networkx, a *test-only* dependency: the code this file's ``_nx_*``
   helpers hold is what ``Network`` ran before routing moved in-tree.
   On every shipped topology and on drawn graphs with unique shortest
   paths the next-hop tables (values and iteration order), the multicast
   ``children`` maps and ``path``/``path_delay`` must be identical.
2. a brute-force statement of the documented tie-break, for graphs with
   deliberately tied integer weights (networkx is not consulted: which
   equal-cost path it picks is an accident of its version).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

nx = pytest.importorskip("networkx")

from repro.net.multicast import shortest_path_tree
from repro.net.network import Network
from repro.net.routing import add_edge, dijkstra
from repro.scenarios import (
    CATALOG,
    JitteredTreeTopology,
    RttCohortTopology,
    TransitStubTopology,
    WaxmanTopology,
    build_topology,
    get_scenario,
)
from repro.sim.engine import Simulator
from repro.topology.dumbbell import DumbbellCohort, DumbbellSpec, build_dumbbell
from repro.topology.restricted import RestrictedSpec, build_restricted
from repro.topology.tree import build_tertiary_tree
from repro.units import mbps, ms


# ----------------------------------------------------------------------
# the networkx reference: Network's routing code before this module
# ----------------------------------------------------------------------
def _nx_graph(net):
    graph = nx.Graph()
    for node in net.nodes:
        graph.add_node(node)
    for a, b in net.links:  # (a, b) then (b, a): the second is a no-op
        graph.add_edge(a, b, delay=net.links[(a, b)].delay_s)
    return graph


def _nx_next_hops(graph):
    """``{src: [(dst, next hop), ...]}`` in installation order."""
    paths = dict(nx.all_pairs_dijkstra_path(graph, weight="delay"))
    return {
        src: [(dst, path[1]) for dst, path in by_dst.items()
              if dst != src and len(path) >= 2]
        for src, by_dst in paths.items()
    }


def _nx_tree(graph, source, members):
    children = {}
    for member in members:
        if member == source:
            continue
        path = nx.shortest_path(graph, source, member, weight="delay")
        for parent, child in zip(path, path[1:]):
            branch = children.setdefault(parent, [])
            if child not in branch:
                branch.append(child)
    return children


def _assert_matches_networkx(net, source, members):
    graph = _nx_graph(net)
    installed = {
        name: [(dst, link.dst.id) for dst, link in node.routes.items()]
        for name, node in net.nodes.items()
    }
    assert installed == _nx_next_hops(graph)
    assert list(installed) == list(graph)

    ours = shortest_path_tree(net.graph, source, members)
    reference = _nx_tree(graph, source, members)
    assert ours == reference
    assert list(ours) == list(reference)  # parents in the same order too

    for member in members[:8] + members[-8:]:
        for a, b in ((source, member), (member, source), (member, members[0])):
            assert net.path(a, b) == nx.shortest_path(graph, a, b, weight="delay")
            assert net.path_delay(a, b) == nx.shortest_path_length(
                graph, a, b, weight="delay")


# ----------------------------------------------------------------------
# shipped topologies
# ----------------------------------------------------------------------
def test_fig6_tree_matches_networkx():
    net, info = build_tertiary_tree(Simulator(seed=1))
    _assert_matches_networkx(net, "S", info.leaves)
    # a sparse, out-of-order member set exercises trunk sharing
    _assert_matches_networkx(net, "S", ["R27", "R1", "G32", "R14", "R2"])


@pytest.mark.parametrize("branches", [3, 256], ids=["restricted", "star256"])
def test_restricted_star_matches_networkx(branches):
    spec = RestrictedSpec(mu_pps=[200.0] * branches)
    net, receivers = build_restricted(Simulator(seed=1), spec)
    _assert_matches_networkx(net, "S", receivers)


def test_dumbbell_matches_networkx():
    spec = DumbbellSpec(capacity_pps=400.0, cohorts=(
        DumbbellCohort(5, ms(3), "fast"), DumbbellCohort(5, ms(95), "slow")))
    net, cohort_hosts = build_dumbbell(Simulator(seed=1), spec)
    _assert_matches_networkx(net, "S", cohort_hosts[1] + cohort_hosts[0])


#: every distinct catalog topology, plus larger and denser relatives
GENERATED = list(dict.fromkeys(
    [get_scenario(name).topology for name in CATALOG] + [
        WaxmanTopology(n=48, alpha=0.9),  # dense: many alternative paths
        TransitStubTopology(transits=4, stubs_per_transit=3, hosts_per_stub=3),
        JitteredTreeTopology(depth=3, fanout=4),
        RttCohortTopology(fast_hosts=128, slow_hosts=128),
    ]))


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize(
    "spec", GENERATED,
    ids=[f"{i}-{type(s).__name__}" for i, s in enumerate(GENERATED)])
def test_generated_topologies_match_networkx(spec, seed):
    topo = build_topology(Simulator(seed=seed), spec)
    topo.net.build_routes()
    members = [host for host in topo.hosts if host != topo.source]
    _assert_matches_networkx(topo.net, topo.source, members[::-1])


# ----------------------------------------------------------------------
# drawn graphs
# ----------------------------------------------------------------------
@st.composite
def connected_graphs(draw, weights):
    """(node count, [(a, b, w)]) — a random spanning tree plus extra edges.

    ``weights(draw, m)`` supplies the m edge weights.
    """
    n = draw(st.integers(2, 9))
    order = draw(st.permutations(range(n)))
    pairs = [(order[draw(st.integers(0, i - 1))], order[i])
             for i in range(1, n)]
    spare = [p for p in itertools.combinations(range(n), 2)
             if p not in pairs and p[::-1] not in pairs]
    if spare:
        pairs += draw(st.lists(st.sampled_from(spare), unique=True,
                               max_size=2 * n))
    pairs = draw(st.permutations(pairs))
    return n, [(a, b, w) for (a, b), w in zip(pairs, weights(draw, len(pairs)))]


def _distinct_sums(draw, m):
    # distinct powers of two: no two edge subsets share a sum, so every
    # shortest path is unique and float addition is exact
    return [float(2 ** k) for k in draw(st.permutations(range(m)))]


def _tied(draw, m):
    return draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))


def _network(n, edges):
    net = Network(Simulator(seed=1))
    for a, b, w in edges:
        net.add_link(f"n{a}", f"n{b}", mbps(1), w)
    net.build_routes()
    return net


@settings(max_examples=150, deadline=None, derandomize=True)
@given(connected_graphs(_distinct_sums), st.data())
def test_drawn_unique_path_graphs_match_networkx(drawn, data):
    net = _network(*drawn)
    names = list(net.nodes)
    source = data.draw(st.sampled_from(names))
    members = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                 unique=True))
    _assert_matches_networkx(net, source, members)


# ----------------------------------------------------------------------
# the tie-break, stated by brute force
# ----------------------------------------------------------------------
def _brute_force(graph, source):
    """dist/pred/first-hop in settling order, from the documented rule alone.

    Distances come from enumerating every simple path.  Then: nodes settle
    in order of (distance, when their winning entry was pushed); an entry
    is pushed when its parent settles, parents push neighbours in
    link-insertion order, and only a strictly smaller distance replaces an
    entry — so a node's parent is the *earliest-settled* neighbour on any
    of its shortest paths.
    """
    dist = {}

    def extend(node, length, visited):
        if length < dist.get(node, float("inf")):
            dist[node] = length
        for nxt, w in graph[node].items():
            if nxt not in visited:
                extend(nxt, length + w, visited | {nxt})

    extend(source, 0.0, {source})

    settled = [source]
    pred = {}
    while len(settled) < len(dist):
        best = None
        for u in dist:
            if u in settled:
                continue
            for rank, v in enumerate(settled):
                if u in graph[v] and dist[v] + graph[v][u] == dist[u]:
                    key = (dist[u], rank, list(graph[v]).index(u))
                    if best is None or key < best[0]:
                        best = (key, u, v)
                    break  # later-settled tight neighbours never win
        _, u, v = best
        settled.append(u)
        pred[u] = v

    first_hop = {source: None}
    for u in settled[1:]:
        first_hop[u] = u if pred[u] == source else first_hop[pred[u]]
    return {u: dist[u] for u in settled}, pred, first_hop


@settings(max_examples=200, deadline=None, derandomize=True)
@given(connected_graphs(_tied), st.data())
def test_tie_break_is_the_documented_rule(drawn, data):
    n, edges = drawn
    graph = {}
    for a, b, w in edges:
        add_edge(graph, a, b, float(w))
    source = data.draw(st.sampled_from(sorted(graph)))
    dist, pred, first_hop = _brute_force(graph, source)

    run = dijkstra(graph, source)
    assert run.pred == pred
    for ours, expected in ((run.dist, dist), (run.first_hop, first_hop)):
        assert list(ours.items()) == list(expected.items())  # order included

    # and the builder installs exactly those hops, in that order
    net = _network(n, edges)
    routes = net.nodes[f"n{source}"].routes
    assert [(dst, link.dst.id) for dst, link in routes.items()] == [
        (f"n{u}", f"n{hop}") for u, hop in first_hop.items() if u != source]


def test_tied_diamond_takes_the_first_added_branch():
    # S-A-T and S-B-T both cost 2; A's link was added first
    for first, second in (("A", "B"), ("B", "A")):
        graph = {}
        add_edge(graph, "S", first, 1.0)
        add_edge(graph, "S", second, 1.0)
        add_edge(graph, second, "T", 1.0)
        add_edge(graph, first, "T", 1.0)
        assert dijkstra(graph, "S").pred["T"] == first
        assert shortest_path_tree(graph, "S", ["T"]) == {"S": [first],
                                                         first: ["T"]}
