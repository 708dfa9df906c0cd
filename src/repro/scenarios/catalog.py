"""Named scenario catalog: the suite the CLI lists and runs.

Each entry is a zero-argument factory so specs are built fresh per call
(immutable either way, but factories keep import time trivial) plus a
one-line description for ``repro scenarios list``.  Overrides (seed,
duration, gateway, audit) are applied through
:meth:`ScenarioSpec.replace`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..errors import ConfigurationError
from .churn import ChurnSpec
from .spec import ScenarioSpec
from .topologies import (
    JitteredTreeTopology,
    RttCohortTopology,
    TransitStubTopology,
    WaxmanTopology,
)
from .traffic import BackgroundTraffic, PacketSizeMix


def _waxman_churn() -> ScenarioSpec:
    """The acceptance scenario: churn + web mice on a random Waxman graph."""
    return ScenarioSpec(
        name="waxman-churn",
        topology=WaxmanTopology(n=20),
        traffic=BackgroundTraffic(tcp_flows=2, mice_rate_per_s=1.0,
                                  mice_mean_pkts=15),
        churn=ChurnSpec(arrival_rate_per_s=0.4, mean_hold_s=12.0,
                        initial_members=3, min_members=2),
        duration=30.0,
        warmup=10.0,
    )


def _waxman_steady() -> ScenarioSpec:
    return ScenarioSpec(
        name="waxman-steady",
        topology=WaxmanTopology(n=20),
        traffic=BackgroundTraffic(tcp_flows=3),
        receivers=5,
        duration=30.0,
        warmup=10.0,
    )


def _tree_churn() -> ScenarioSpec:
    return ScenarioSpec(
        name="tree-churn",
        topology=JitteredTreeTopology(depth=2, fanout=4),
        traffic=BackgroundTraffic(tcp_flows=2, pareto_sources=2,
                                  pareto_rate_pps=40.0),
        churn=ChurnSpec(arrival_rate_per_s=0.3, mean_hold_s=15.0,
                        hold_dist="pareto", initial_members=4,
                        min_members=2),
        duration=40.0,
        warmup=10.0,
    )


def _transit_stub_mice() -> ScenarioSpec:
    return ScenarioSpec(
        name="transit-stub-mice",
        topology=TransitStubTopology(transits=3, stubs_per_transit=2,
                                     hosts_per_stub=2),
        traffic=BackgroundTraffic(tcp_flows=2, mice_rate_per_s=2.0,
                                  mice_mean_pkts=25),
        receivers=6,
        duration=30.0,
        warmup=10.0,
        gateway="red",
    )


def _tree_large_churn() -> ScenarioSpec:
    """Large-group churn: a 64-leaf tree with the whole edge subscribed.

    Sized for the receiver-scaling work: all 64 leaves start as members
    (joins refill behind the leave process), so conservation-audited runs
    cover the sender's incremental min/max/reach maintenance at a group
    size where a full-rescan regression would be visible in CI wall time.
    """
    return ScenarioSpec(
        name="tree-large-churn",
        topology=JitteredTreeTopology(depth=3, fanout=4),
        traffic=BackgroundTraffic(tcp_flows=2),
        churn=ChurnSpec(arrival_rate_per_s=1.5, mean_hold_s=20.0,
                        initial_members=64, min_members=56),
        duration=30.0,
        warmup=10.0,
    )


def _tree_bursty() -> ScenarioSpec:
    return ScenarioSpec(
        name="tree-bursty",
        topology=JitteredTreeTopology(depth=3, fanout=2),
        traffic=BackgroundTraffic(tcp_flows=2, pareto_sources=3,
                                  pareto_rate_pps=60.0, pareto_on_s=0.4,
                                  pareto_off_s=1.2),
        receivers=6,
        duration=30.0,
        warmup=10.0,
    )


def _rtt_cohorts(name: str, gateway: str) -> ScenarioSpec:
    """Fast vs slow RTT cohorts racing across one AQM bottleneck.

    Four ~10 ms-RTT and four ~200 ms-RTT hosts share a 3 Mb/s dumbbell;
    background TCP lands in both cohorts, packet sizes follow a
    mice/bulk/video mix, and the report row carries per-cohort Jain and
    essential-fairness columns.  One entry per studied AQM so the matrix
    has stable, individually runnable anchor points.
    """
    return ScenarioSpec(
        name=name,
        topology=RttCohortTopology(),
        traffic=BackgroundTraffic(tcp_flows=4, mice_rate_per_s=1.0,
                                  mice_mean_pkts=15),
        receivers=4,
        duration=30.0,
        warmup=10.0,
        gateway=gateway,
        packet_sizes=PacketSizeMix(mice_weight=0.3, bulk_weight=0.5,
                                   video_weight=0.2),
    )


def _rtt_cohorts_codel() -> ScenarioSpec:
    return _rtt_cohorts("rtt-cohorts-codel", "codel")


def _rtt_cohorts_pie() -> ScenarioSpec:
    return _rtt_cohorts("rtt-cohorts-pie", "pie")


def _rtt_cohorts_red_byte() -> ScenarioSpec:
    return _rtt_cohorts("rtt-cohorts-red-byte", "red-byte")


#: name -> (factory, description)
CATALOG: Dict[str, Tuple[Callable[[], ScenarioSpec], str]] = {
    "waxman-churn": (
        _waxman_churn,
        "receiver churn + web mice over a random Waxman graph (acceptance)",
    ),
    "waxman-steady": (
        _waxman_steady,
        "fixed receiver set vs long-lived TCP on a Waxman graph",
    ),
    "tree-churn": (
        _tree_churn,
        "heavy-tailed churn + Pareto bursts on a jittered multicast tree",
    ),
    "transit-stub-mice": (
        _transit_stub_mice,
        "web-mice flash crowd on a transit-stub topology with RED gateways",
    ),
    "tree-large-churn": (
        _tree_large_churn,
        "64-receiver churn on a wide jittered tree (large-group smoke)",
    ),
    "tree-bursty": (
        _tree_bursty,
        "self-similar on/off cross traffic on a deep jittered tree",
    ),
    "rtt-cohorts-codel": (
        _rtt_cohorts_codel,
        "fast vs slow RTT cohorts + size mix across a CoDel bottleneck",
    ),
    "rtt-cohorts-pie": (
        _rtt_cohorts_pie,
        "fast vs slow RTT cohorts + size mix across a PIE bottleneck",
    ),
    "rtt-cohorts-red-byte": (
        _rtt_cohorts_red_byte,
        "fast vs slow RTT cohorts + size mix across byte-mode RED",
    ),
}


def scenario_names() -> List[str]:
    """Catalog names in listing order."""
    return list(CATALOG)


def get_scenario(name: str, **overrides) -> ScenarioSpec:
    """Build the named spec, applying field overrides (seed, duration...)."""
    spec = CATALOG[_lookup(name)][0]()
    if overrides:
        spec = spec.replace(**overrides)
    return spec.validate()


def _lookup(name: str) -> str:
    if name not in CATALOG:
        known = ", ".join(scenario_names())
        raise ConfigurationError(f"unknown scenario {name!r} (known: {known})")
    return name


def format_catalog() -> str:
    """The ``repro scenarios list`` table."""
    width = max(len(name) for name in CATALOG)
    lines = []
    for name, (factory, description) in CATALOG.items():
        spec = factory()
        shape = type(spec.topology).__name__
        churn = "churn" if spec.churn is not None else "fixed"
        lines.append(f"{name:<{width}}  [{shape}, {churn}]  {description}")
    return "\n".join(lines)
