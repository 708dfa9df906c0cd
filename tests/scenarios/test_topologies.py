"""Seeded topology generators: determinism, connectivity, parameter ranges."""

import pytest

from repro.errors import TopologyError
from repro.net.routing import add_edge, connected_components
from repro.scenarios import (
    JitteredTreeTopology,
    TransitStubTopology,
    WaxmanTopology,
    build_topology,
)
from repro.sim.engine import Simulator
from repro.units import mbps, ms

SPECS = [
    WaxmanTopology(n=16),
    TransitStubTopology(transits=2, stubs_per_transit=2, hosts_per_stub=2),
    JitteredTreeTopology(depth=2, fanout=3),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_same_seed_same_topology(spec):
    draws = [
        build_topology(Simulator(seed=5), spec).link_draws
        for _ in range(2)
    ]
    assert draws[0] == draws[1]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_hosts_and_source_deterministic(spec):
    topos = [build_topology(Simulator(seed=9), spec) for _ in range(2)]
    assert topos[0].source == topos[1].source
    assert topos[0].hosts == topos[1].hosts


def test_different_seeds_differ():
    spec = WaxmanTopology(n=16)
    a = build_topology(Simulator(seed=1), spec).link_draws
    b = build_topology(Simulator(seed=2), spec).link_draws
    assert a != b


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_generated_graph_is_connected(spec):
    topo = build_topology(Simulator(seed=3), spec)
    graph = {topo.source: {}}
    for a, b, _bw, delay, _buf in topo.link_draws:
        add_edge(graph, a, b, delay)
    assert len(connected_components(graph)) == 1
    assert graph == topo.net.graph  # same edges, same delays
    assert all(host in graph for host in topo.hosts)


def test_waxman_draws_within_ranges():
    spec = WaxmanTopology(n=14)
    topo = build_topology(Simulator(seed=7), spec)
    assert topo.n_links >= 13  # connected on 14 nodes
    (bw_lo, bw_hi), (delay_lo, delay_hi) = spec.bandwidth_mbps, spec.delay_ms
    for _a, _b, bandwidth, delay, buffer_pkts in topo.link_draws:
        assert mbps(bw_lo) <= bandwidth <= mbps(bw_hi)
        assert ms(delay_lo) <= delay <= ms(delay_hi)
        assert spec.buffer_pkts[0] <= buffer_pkts <= spec.buffer_pkts[1]


def test_transit_stub_shape():
    spec = TransitStubTopology(transits=3, stubs_per_transit=2, hosts_per_stub=2)
    topo = build_topology(Simulator(seed=4), spec)
    assert topo.source == "SRC"
    assert len(topo.hosts) == 3 * 2 * 2
    # ring core + stub routers + host links + source access link
    assert topo.n_links == 3 + 3 * 2 + 3 * 2 * 2 + 1


def test_jittered_tree_shape_and_jitter():
    spec = JitteredTreeTopology(depth=2, fanout=3)
    topo = build_topology(Simulator(seed=11), spec)
    assert len(topo.hosts) == 9  # fanout^depth leaves
    assert topo.source == "S"
    leaf_delays = {delay for _a, b, _bw, delay, _buf in topo.link_draws
                   if b.startswith("R")}
    assert len(leaf_delays) > 1  # jitter makes branches heterogeneous


def test_red_gateway_accepted():
    topo = build_topology(Simulator(seed=2), WaxmanTopology(n=10), gateway="red")
    assert topo.n_links >= 9


def test_unknown_gateway_rejected():
    with pytest.raises(TopologyError):
        build_topology(Simulator(seed=1), WaxmanTopology(n=10), gateway="fifo")


@pytest.mark.parametrize("bad", [
    WaxmanTopology(n=2),
    WaxmanTopology(alpha=0.0),
    WaxmanTopology(alpha=1.5),
    TransitStubTopology(hosts_per_stub=0),
    TransitStubTopology(transits=0),
    JitteredTreeTopology(depth=0),
    JitteredTreeTopology(fanout=0),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(TopologyError):
        build_topology(Simulator(seed=1), bad)


def test_unknown_spec_type_rejected():
    with pytest.raises(TopologyError):
        build_topology(Simulator(seed=1), object())
