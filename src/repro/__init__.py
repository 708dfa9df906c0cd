"""repro — a reproduction of the Random Listening Algorithm (RLA).

Wang & Schwartz, "Achieving Bounded Fairness for Multicast and TCP
Traffic in the Internet", SIGCOMM 1998.

Subpackages
-----------
``repro.sim``
    Discrete-event simulation engine (the NS2 stand-in).
``repro.net``
    Packet-level substrate: links, drop-tail/RED/CoDel/PIE gateways,
    in-tree shortest-path routing, multicast trees.
``repro.tcp``
    TCP SACK — the competing unicast traffic.
``repro.rla``
    The paper's contribution: the window-based Random Listening Algorithm
    and its generalized different-RTT variant.
``repro.baselines``
    LTRC / MBFC rate-based schemes and the deterministic listener.
``repro.models``
    Analytical results of §4: PA windows, drift analysis, essential
    fairness bounds, the two-session particle model.
``repro.topology``
    The paper's topologies: figure 1 (restricted) and figure 6 (tree).
``repro.experiments``
    The paper's figures and tables (figures 4, 5, 7, 8, 9, 10, §5.2).
``repro.lifecycle``
    The one build -> advance -> finalize -> snapshot/resume driver the
    tree, scenario and sweep backends share (a module, not a package).
``repro.runtime``
    Parallel experiment execution: content-addressed run specs, a
    process-pool executor with retry/timeout handling, an on-disk
    result cache, and per-run cost metrics.
``repro.audit``
    Opt-in conservation auditor, invariant monitor, flight recorder.
``repro.scenarios``
    Generated workloads: seeded topologies, traffic, churn, the AQM grid.
``repro.checkpoint``
    Snapshot/restore of a running simulation; resume and fork.
``repro.fluid``
    Mean-field ODE backend for 10^5-10^6 flows, cross-validated.

Quick start::

    from repro import Simulator, Network, TcpFlow, RLASession
    from repro.units import ms, pps_to_bps

    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_link("S", "G", pps_to_bps(10_000), ms(5))
    net.add_link("G", "R1", pps_to_bps(200), ms(50))
    net.build_routes()
    tcp = TcpFlow(sim, net, "tcp-0", "S", "R1")
    rla = RLASession(sim, net, "rla-0", "S", ["R1"])
    tcp.start(); rla.start()
    sim.run(until=100.0)
    print(tcp.report(), rla.report())
"""

from typing import Iterable

from .errors import (
    ConfigurationError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
    TopologyError,
)

__version__ = "1.0.0"


def lazy_exports(package: str, entries: Iterable[str]):
    """``(__getattr__, names)`` for a package root that re-exports each
    ``"repro.module:name"`` entry (PEP 562): importing the root loads
    none of those modules, and each loads on first use of one of its
    names.  The entries are written out in full so that a static import
    walk (``tests/test_reachability.py``) follows them."""
    where = dict(entry.split(":")[::-1] for entry in entries)

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        from importlib import import_module

        return getattr(import_module(where[name]), name)

    return __getattr__, list(where)


#: The quick-start names, by the module that defines them: ``import
#: repro.cli`` and a cache replay pay for no simulator module.
__getattr__, _quick_start = lazy_exports(__name__, (
    "repro.net.droptail:DropTailQueue", "repro.net.network:GatewayFactory",
    "repro.net.network:Network", "repro.net.node:Node",
    "repro.net.packet:Packet", "repro.net.monitor:QueueMonitor",
    "repro.net.red:REDQueue", "repro.rla.config:RLAConfig",
    "repro.rla.receiver:RLAReceiver", "repro.rla.sender:RLASender",
    "repro.rla.session:RLASession", "repro.sim.engine:Simulator",
    "repro.tcp.config:TcpConfig", "repro.tcp.flow:TcpFlow",
    "repro.tcp.receiver:TcpReceiver", "repro.tcp.sender:TcpSender",
))

__all__ = [
    "ConfigurationError",
    "ReproError",
    "RoutingError",
    "SchedulingError",
    "SimulationError",
    "TopologyError",
    "__version__",
    *_quick_start,
]
