"""Seeded random topology generators for the scenario suite.

Three families, all emitting ordinary :class:`~repro.net.network.Network`
objects with per-link bandwidth/delay/buffer draws from one dedicated RNG
stream (``scenario.topology``), so a topology is a pure function of the
scenario seed:

* **Waxman** — the classic random graph of Waxman '88: nodes scattered in
  the unit square, edge probability ``alpha * exp(-d / (beta * L))``
  decaying with Euclidean distance.  Components are stitched together
  deterministically so the graph is always connected.
* **Transit-stub** — a small transit core (ring) with stub domains hanging
  off each transit router and hosts behind each stub router, the
  GT-ITM-style structure of real inter-domain topologies.
* **Jittered multicast tree** — the paper's k-ary tree shape, but with
  per-link delay/bandwidth jitter so no two branches are identical and
  phase effects cannot hide in symmetry.

Every generator returns a :class:`GeneratedTopology` naming the multicast
source and the candidate receiver hosts; scenario specs draw receiver
sets and churn schedules from those hosts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..errors import TopologyError
from ..net.routing import Adjacency, add_edge, connected_components
from ..units import DEFAULT_PACKET_SIZE, mbps, ms

if TYPE_CHECKING:  # the builders import the network; the specs need none
    from ..net.network import GatewayFactory, Network
    from ..sim.engine import Simulator

#: Name of the RNG stream every generator draws from.
TOPOLOGY_STREAM = "scenario.topology"


# ----------------------------------------------------------------------
# topology specifications (canonicalizable, frozen, picklable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WaxmanTopology:
    """Waxman random graph: ``n`` nodes in the unit square.

    ``alpha`` scales overall edge density; ``beta`` controls how sharply
    probability decays with distance.  ``bandwidth_mbps``/``delay_ms``/
    ``buffer_pkts`` are uniform draw ranges applied per link.
    """

    n: int = 24
    alpha: float = 0.5

    # fixed shape and per-link draw ranges (class attributes, not fields)
    beta = 0.25
    bandwidth_mbps = (1.5, 6.0)
    delay_ms = (2.0, 15.0)
    buffer_pkts = (15, 40)

    def validate(self) -> "WaxmanTopology":
        """Check parameter sanity; returns self for chaining."""
        if self.n < 3:
            raise TopologyError(f"Waxman graph needs >= 3 nodes, got {self.n}")
        if not 0.0 < self.alpha <= 1.0:
            raise TopologyError(f"need 0 < alpha <= 1: alpha={self.alpha}")
        return self


@dataclass(frozen=True)
class TransitStubTopology:
    """Transit core ring with stub domains and hosts (GT-ITM shape)."""

    transits: int = 3
    stubs_per_transit: int = 2
    hosts_per_stub: int = 3

    # per-link draw ranges (class attributes, not fields)
    transit_bandwidth_mbps = (20.0, 40.0)
    transit_delay_ms = (8.0, 25.0)
    stub_bandwidth_mbps = (1.5, 6.0)
    stub_delay_ms = (1.0, 6.0)
    buffer_pkts = (15, 40)

    def validate(self) -> "TransitStubTopology":
        """Check parameter sanity; returns self for chaining."""
        if self.transits < 1 or self.stubs_per_transit < 1 or self.hosts_per_stub < 1:
            raise TopologyError(
                "transit-stub needs >= 1 transit, stub and host per level"
            )
        return self


@dataclass(frozen=True)
class JitteredTreeTopology:
    """k-ary multicast tree with per-link delay/bandwidth jitter.

    Interior links are fast and short, leaf links slow and long (the
    paper's figure-6 proportions); ``jitter`` is the +/- relative spread
    drawn per link, so the branches are heterogeneous.
    """

    depth: int = 3
    fanout: int = 3

    # per-link means, spread and buffer range (class attributes, not fields)
    interior_bandwidth_mbps = 50.0
    interior_delay_ms = 5.0
    leaf_bandwidth_mbps = 1.6
    leaf_delay_ms = 40.0
    jitter = 0.3
    buffer_pkts = (15, 30)

    def validate(self) -> "JitteredTreeTopology":
        """Check parameter sanity; returns self for chaining."""
        if self.depth < 1 or self.fanout < 1:
            raise TopologyError("tree needs depth >= 1 and fanout >= 1")
        return self


@dataclass(frozen=True)
class RttCohortTopology:
    """Dumbbell with fast and slow receiver cohorts on one bottleneck.

    The classic RTT-unfairness shape: every flow crosses the same
    ``GL -- GR`` bottleneck (the only link running the discipline under
    test), but access links behind ``GR`` split the hosts into a *fast*
    cohort (~10 ms RTT to the source) and a *slow* cohort (~200 ms RTT
    by default).  TCP throughput scales like 1/RTT, so the cohort
    structure stresses exactly the heterogeneity the paper's 1998
    evaluation never covered; the scenario runner reports per-cohort
    Jain indices and bound verdicts keyed by the labels recorded in
    :attr:`GeneratedTopology.cohorts`.
    """

    fast_hosts: int = 4
    slow_hosts: int = 4
    #: One-way access delay per cohort (RTT ~= 2 * (access + bottleneck
    #: + source-side delays)).
    fast_delay_ms: float = 3.0
    slow_delay_ms: float = 95.0

    # fixed links (class attributes, not fields)
    #: +/- relative jitter drawn per access link so cohort members are
    #: heterogeneous within the cohort too.
    delay_jitter = 0.1
    bottleneck_mbps = 3.0
    bottleneck_delay_ms = 1.0
    #: One-way delay of the uncongested source feed SRC -- GL.
    source_delay_ms = 1.0
    access_mbps = 20.0
    #: Bottleneck buffer (the AQM's physical capacity).
    buffer_pkts = 25
    #: Access-link buffers, generous so the bottleneck stays the only
    #: congestion point.
    access_buffer_pkts = 100

    def validate(self) -> "RttCohortTopology":
        """Check parameter sanity; returns self for chaining."""
        if self.fast_hosts < 1 or self.slow_hosts < 1:
            raise TopologyError("need >= 1 host in each RTT cohort")
        if not 0.0 < self.fast_delay_ms < self.slow_delay_ms:
            raise TopologyError(
                f"need 0 < fast_delay_ms < slow_delay_ms: "
                f"{self.fast_delay_ms}, {self.slow_delay_ms}"
            )
        return self


# ----------------------------------------------------------------------
# build result
# ----------------------------------------------------------------------
@dataclass
class GeneratedTopology:
    """A built scenario network plus its multicast roles."""

    net: Network
    #: multicast source node id
    source: str
    #: candidate receiver hosts, in deterministic generation order
    hosts: List[str]
    #: (a, b, bandwidth_bps, delay_s, buffer_pkts) per undirected link
    link_draws: List[Tuple[str, str, float, float, int]] = field(default_factory=list)
    #: host id -> cohort label (e.g. "fast"/"slow"); empty for topologies
    #: without cohort structure, in which case the scenario runner emits
    #: no per-cohort columns.
    cohorts: Dict[str, str] = field(default_factory=dict)

    @property
    def n_links(self) -> int:
        """Number of (directed) links the generator created."""
        return len(self.link_draws)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def build_topology(
    sim: Simulator,
    spec,
    gateway: str = "droptail",
    ecn: bool = False,
    mean_packet_size: int = DEFAULT_PACKET_SIZE,
) -> GeneratedTopology:
    """Build the network a topology spec describes onto ``sim``.

    All randomness comes from the simulator's ``scenario.topology``
    stream: the same (seed, spec) pair always yields the identical
    network, regardless of process or worker count.  ``gateway`` names
    any registered queue discipline; ``ecn`` switches its early
    notifications to CE marking; ``mean_packet_size`` provisions the
    links' service-time estimate (and byte-mode RED thresholds) for the
    scenario's configured packet-size mix.
    """
    from ..net.network import GatewayFactory

    # Validates the discipline name up front (raises TopologyError); each
    # link gets this factory at its own drawn buffer.
    factory = GatewayFactory(gateway, sim, mark_ecn=ecn,
                             mean_packet_size=mean_packet_size)
    rng = sim.rng.stream(TOPOLOGY_STREAM)
    if isinstance(spec, WaxmanTopology):
        return _build_waxman(spec.validate(), factory, rng)
    if isinstance(spec, TransitStubTopology):
        return _build_transit_stub(spec.validate(), factory, rng)
    if isinstance(spec, JitteredTreeTopology):
        return _build_jittered_tree(spec.validate(), factory, rng)
    if isinstance(spec, RttCohortTopology):
        return _build_rtt_cohorts(spec.validate(), factory, rng)
    raise TopologyError(f"unknown topology spec {type(spec).__name__}")


def _new_topology(factory: GatewayFactory, source: str) -> GeneratedTopology:
    """An empty generated topology on the factory's simulator."""
    from ..net.network import Network

    net = Network(factory.sim, mean_packet_size=factory.mean_packet_size)
    return GeneratedTopology(net=net, source=source, hosts=[])


def _add_drawn_link(
    topo: GeneratedTopology,
    factory: GatewayFactory,
    rng: random.Random,
    a: str,
    b: str,
    bandwidth_range: Tuple[float, float],
    delay_range: Tuple[float, float],
    buffer_range: Tuple[int, int],
) -> None:
    """Draw one link's parameters and install it bidirectionally."""
    bandwidth = mbps(rng.uniform(*bandwidth_range))
    delay = ms(rng.uniform(*delay_range))
    buffer_pkts = rng.randint(*buffer_range)
    topo.net.add_link(a, b, bandwidth, delay,
                      queue_factory=replace(factory, capacity=buffer_pkts))
    topo.link_draws.append((a, b, bandwidth, delay, buffer_pkts))


def _build_waxman(
    spec: WaxmanTopology, factory: GatewayFactory, rng: random.Random,
) -> GeneratedTopology:
    n = spec.n
    positions = [(rng.random(), rng.random()) for _ in range(n)]
    scale = spec.beta * math.sqrt(2.0)  # L = max distance in the unit square

    edges: List[Tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            dx = positions[i][0] - positions[j][0]
            dy = positions[i][1] - positions[j][1]
            dist = math.hypot(dx, dy)
            if rng.random() < spec.alpha * math.exp(-dist / scale):
                edges.append((i, j))

    # Stitch disconnected components onto the component of node 0 by
    # joining each component's lowest-index node to its geometrically
    # nearest node in the main component (ties broken by index) --
    # deterministic, so connectivity never depends on luck.  (The probe
    # is seeded 0..n-1, so components come out ordered by lowest index.)
    probe: Adjacency = {k: {} for k in range(n)}
    for i, j in edges:
        add_edge(probe, i, j, 1.0)
    components = connected_components(probe)
    main = set(components[0])
    for component in components[1:]:
        anchor = min(component)
        nearest = min(
            sorted(main),
            key=lambda k: (
                math.hypot(
                    positions[anchor][0] - positions[k][0],
                    positions[anchor][1] - positions[k][1],
                ),
                k,
            ),
        )
        edges.append((min(anchor, nearest), max(anchor, nearest)))
        main |= component

    # The multicast source is the best-connected node (ties -> lowest
    # index): a hub makes the generated trees branch early, like a
    # well-placed content source would.
    degree: Dict[int, int] = {k: 0 for k in range(n)}
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    source_index = max(range(n), key=lambda k: (degree[k], -k))

    names = [f"W{k}" for k in range(n)]
    topo = _new_topology(factory, names[source_index])
    for i, j in sorted(edges):
        _add_drawn_link(
            topo, factory, rng, names[i], names[j],
            spec.bandwidth_mbps, spec.delay_ms, spec.buffer_pkts,
        )
    topo.net.build_routes()
    topo.hosts = [name for name in names if name != topo.source]
    return topo


def _build_transit_stub(
    spec: TransitStubTopology, factory: GatewayFactory, rng: random.Random,
) -> GeneratedTopology:
    topo = _new_topology(factory, "SRC")
    transits = [f"T{i}" for i in range(spec.transits)]

    # transit core: a ring (a chain for < 3 transits)
    for index in range(len(transits) - 1):
        _add_drawn_link(
            topo, factory, rng, transits[index], transits[index + 1],
            spec.transit_bandwidth_mbps, spec.transit_delay_ms, spec.buffer_pkts,
        )
    if len(transits) >= 3:
        _add_drawn_link(
            topo, factory, rng, transits[-1], transits[0],
            spec.transit_bandwidth_mbps, spec.transit_delay_ms, spec.buffer_pkts,
        )

    # stub domains: router per stub, hosts behind each router
    for t_index, transit in enumerate(transits):
        for s_index in range(spec.stubs_per_transit):
            router = f"G{t_index}.{s_index}"
            _add_drawn_link(
                topo, factory, rng, transit, router,
                spec.stub_bandwidth_mbps, spec.stub_delay_ms, spec.buffer_pkts,
            )
            for h_index in range(spec.hosts_per_stub):
                host = f"H{t_index}.{s_index}.{h_index}"
                _add_drawn_link(
                    topo, factory, rng, router, host,
                    spec.stub_bandwidth_mbps, spec.stub_delay_ms, spec.buffer_pkts,
                )
                topo.hosts.append(host)

    # the source sits on its own fast access link into the first transit,
    # so the generated bottlenecks are always in the core or the stubs
    from ..net.network import GatewayFactory

    deep = GatewayFactory("droptail", factory.sim, 1000)
    topo.net.add_link("SRC", transits[0], mbps(100), ms(1), queue_factory=deep)
    topo.link_draws.append(("SRC", transits[0], mbps(100), ms(1), 1000))
    topo.net.build_routes()
    return topo


def _build_jittered_tree(
    spec: JitteredTreeTopology, factory: GatewayFactory, rng: random.Random,
) -> GeneratedTopology:
    topo = _new_topology(factory, "S")

    def jittered(base: float) -> float:
        return base * rng.uniform(1.0 - spec.jitter, 1.0 + spec.jitter)

    def grow(parent: str, level: int, prefix: str) -> None:
        for k in range(1, spec.fanout + 1):
            label = f"{prefix}{k}" if prefix else str(k)
            leaf = level == spec.depth
            child = f"R{label}" if leaf else f"G{label}"
            bandwidth = mbps(jittered(
                spec.leaf_bandwidth_mbps if leaf else spec.interior_bandwidth_mbps
            ))
            delay = ms(jittered(
                spec.leaf_delay_ms if leaf else spec.interior_delay_ms
            ))
            buffer_pkts = rng.randint(*spec.buffer_pkts)
            topo.net.add_link(
                parent, child, bandwidth, delay,
                queue_factory=replace(factory, capacity=buffer_pkts),
            )
            topo.link_draws.append((parent, child, bandwidth, delay, buffer_pkts))
            if leaf:
                topo.hosts.append(child)
            else:
                grow(child, level + 1, f"{label}.")

    grow("S", 1, "")
    topo.net.build_routes()
    return topo


def _build_rtt_cohorts(
    spec: RttCohortTopology, factory: GatewayFactory, rng: random.Random,
) -> GeneratedTopology:
    """Dumbbell: SRC -- GL ==bottleneck== GR -- {fast, slow} access links.

    Only the bottleneck runs the discipline under test; the source feed
    and per-host access links are generously buffered drop-tail so every
    congestion signal originates at the shared queue, the setting the
    essential-fairness theorems reason about.
    """
    from ..net.network import GatewayFactory

    topo = _new_topology(factory, "SRC")
    plain = GatewayFactory("droptail", factory.sim)

    def plain_link(a: str, b: str, bandwidth: float, delay: float,
                   buffer_pkts: int) -> None:
        topo.net.add_link(a, b, bandwidth, delay,
                          queue_factory=replace(plain, capacity=buffer_pkts))
        topo.link_draws.append((a, b, bandwidth, delay, buffer_pkts))

    # uncongested source feed into the left gateway
    plain_link("SRC", "GL", mbps(100), ms(spec.source_delay_ms), 1000)

    # the shared bottleneck, running the AQM under test in both directions
    bottleneck_bw = mbps(spec.bottleneck_mbps)
    bottleneck_delay = ms(spec.bottleneck_delay_ms)
    topo.net.add_link(
        "GL", "GR", bottleneck_bw, bottleneck_delay,
        queue_factory=replace(factory, capacity=spec.buffer_pkts),
    )
    topo.link_draws.append(
        ("GL", "GR", bottleneck_bw, bottleneck_delay, spec.buffer_pkts)
    )

    def access(host: str, cohort: str, base_delay_ms: float) -> None:
        delay = ms(base_delay_ms * rng.uniform(1.0 - spec.delay_jitter,
                                               1.0 + spec.delay_jitter))
        plain_link("GR", host, mbps(spec.access_mbps), delay,
                   spec.access_buffer_pkts)
        topo.hosts.append(host)
        topo.cohorts[host] = cohort

    for index in range(spec.fast_hosts):
        access(f"F{index}", "fast", spec.fast_delay_ms)
    for index in range(spec.slow_hosts):
        access(f"L{index}", "slow", spec.slow_delay_ms)

    topo.net.build_routes()
    return topo
