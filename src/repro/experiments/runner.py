"""Generic runner for the tree experiments of §5 (figures 7-10).

One function, :func:`run_tree_experiment`, builds the figure 6 tree for a
:class:`TreeCase`, attaches one background TCP connection per receiver and
one (or more) RLA sessions, runs warmup + measurement, and returns all the
paper-reported metrics.  The figure modules parameterize it; benchmarks
call those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Union

from ..errors import ConfigurationError
from ..lifecycle import (
    World,
    advance_world,
    arming,
    run_many,
    run_world,
    runspec,
)
from ..net.addressing import flow_id
from ..rla.config import RLAConfig
from ..rla.session import RLASession
from ..sim.engine import Simulator
from ..tcp.config import TcpConfig
from ..tcp.flow import TcpFlow
from ..topology.cases import (
    TreeCase,
    case_bandwidths,
    case_receivers,
    congestion_tiers,
)
from ..topology.tree import build_tertiary_tree, static_tree_info
from ..units import DEFAULT_PACKET_SIZE, bps_to_pps, check_horizon, transmission_time


@dataclass
class TreeExperimentSpec:
    """Everything needed to reproduce one column of a §5 table."""

    case: TreeCase
    gateway: str = "droptail"
    duration: float = 200.0
    warmup: float = 20.0
    seed: int = 1
    share_pps: float = 100.0
    tcp_per_receiver: int = 1
    rla_sessions: int = 1
    #: None = auto (generalized RLA iff the case mixes RTT tiers)
    generalized: Optional[bool] = None
    #: "auto" = one bottleneck service time for drop-tail, none for RED
    phase_jitter: Union[str, float, None] = "auto"
    buffer_pkts: int = 20
    eta: float = 20.0
    rexmit_thresh: int = 0
    forced_cut_enabled: bool = True
    packet_size: int = DEFAULT_PACKET_SIZE
    #: Receiver-advertised window for the TCP flows, packets.  The paper's
    #: BTCP reaches cwnd ~135 on uncongested branches, implying an NS2
    #: advertised window of this magnitude; without a cap, uncongested
    #: TCPs grow without bound and swamp the simulation.
    tcp_max_cwnd: float = 128.0
    #: Run under the :mod:`repro.audit` conservation auditor: every packet
    #: is tracked to its terminal fate, senders are sanity-checked per ACK,
    #: and end-of-run conservation is enforced (raises
    #: :class:`~repro.audit.InvariantViolation` on any inconsistency).
    audited: bool = False

    # how repro.lifecycle runs this spec (class attributes, not fields)
    runner = "repro.experiments.runner:run_tree_experiment"
    checkpointable = True

    def run_label(self) -> str:
        return f"{self.case.name}/{self.gateway}/seed{self.seed}"

    def validate(self) -> "TreeExperimentSpec":
        if self.gateway not in ("droptail", "red"):
            raise ConfigurationError(f"unknown gateway {self.gateway!r}")
        check_horizon(self.duration, self.warmup)
        if self.tcp_per_receiver < 0:
            raise ConfigurationError("tcp_per_receiver must be >= 0")
        if self.rla_sessions < 1:
            raise ConfigurationError("need at least one RLA session")
        return self

    def resolved_generalized(self) -> bool:
        if self.generalized is not None:
            return self.generalized
        return self.case.receivers != "leaves"

    def resolved_jitter(self, min_bottleneck_bps: float) -> Optional[float]:
        if self.phase_jitter == "auto":
            if self.gateway == "red":
                return None  # RED itself eliminates phase effects (§3.1)
            return transmission_time(self.packet_size, min_bottleneck_bps)
        if self.phase_jitter is None:
            return None
        return float(self.phase_jitter)


@dataclass
class TreeExperimentResult:
    """All measurements from one tree experiment."""

    spec: TreeExperimentSpec
    #: one report per RLA session (see RLASession.report)
    rla: List[dict]
    #: per-receiver report of its background TCP flow (first one if several)
    tcp: Dict[str, dict]
    #: receivers split into "more" / "less" congested tiers
    tiers: Dict[str, List[str]] = field(default_factory=dict)
    receivers: List[str] = field(default_factory=list)
    #: engine statistics for the runtime layer's metric tables:
    #: events executed, total gateway drops, peak queue depth
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def wtcp(self) -> dict:
        """The worst competing TCP connection (paper's WTCP row)."""
        return min(self.tcp.values(), key=lambda r: r["throughput_pps"])

    @property
    def btcp(self) -> dict:
        """The best competing TCP connection (paper's BTCP row)."""
        return max(self.tcp.values(), key=lambda r: r["throughput_pps"])

    def tcp_cuts_by_tier(self, tier: str) -> List[int]:
        """Window-cut counts of the TCP flows in one congestion tier.

        Receivers without a background TCP (figure 10's interior G3x
        members) are skipped.
        """
        return [self.tcp[r]["window_cuts"] for r in self.tiers.get(tier, ())
                if r in self.tcp]

    def rla_signals_by_tier(self, tier: str, session: int = 0) -> List[int]:
        """RLA per-branch congestion-signal counts in one tier."""
        signals = self.rla[session]["signals_by_receiver"]
        return [signals[r] for r in self.tiers.get(tier, ()) if r in signals]


@dataclass
class TreeWorld(World):
    """A live (or restored) §5 experiment: everything between build and report."""

    spec: TreeExperimentSpec
    sim: Simulator
    net: Any
    info: Any
    receivers: List[str]
    gateways: List[Any]
    tcp_flows: Dict[str, TcpFlow]
    extra_flows: List[TcpFlow]
    sessions: List[RLASession]
    auditor: Any = None
    marked: bool = False

    def _flows(self) -> List[TcpFlow]:
        return list(self.tcp_flows.values()) + self.extra_flows

    def marks(self) -> List[Any]:
        return self._flows() + self.sessions

    def tcp_senders(self) -> List[Any]:
        return [flow.sender for flow in self._flows()]

    def rla_senders(self) -> List[Any]:
        return [session.sender for session in self.sessions]

    def label(self) -> str:
        return f"{self.spec.case.name}/{self.spec.gateway}"

    def finalize(self) -> TreeExperimentResult:
        return finalize_tree_world(self)


def build_tree_world(spec: TreeExperimentSpec) -> TreeWorld:
    """Construct the tree, attach audit hooks, and start all traffic.

    On an audited spec this installs the process-global packet-creation
    hook: callers must eventually call :meth:`TreeWorld.disarm`
    (:func:`repro.lifecycle.run_world` does, in every outcome).
    """
    spec.validate()
    case = spec.case
    info = static_tree_info()
    bandwidths = case_bandwidths(
        case, info, share_pps=spec.share_pps,
        tcp_per_receiver=spec.tcp_per_receiver, packet_size=spec.packet_size,
    )
    sim = Simulator(seed=spec.seed)
    net, _ = build_tertiary_tree(
        sim, gateway=spec.gateway, link_bandwidths=bandwidths,
        buffer_pkts=spec.buffer_pkts, info=info,
    )
    receivers = case_receivers(case, info)
    jitter = spec.resolved_jitter(min(bandwidths.values()))
    start_rng = sim.rng.stream("experiment.start")

    gateways = [link.gateway for link in net.links.values()]
    tcp_config = TcpConfig(
        packet_size=spec.packet_size, phase_jitter=jitter,
        max_cwnd=spec.tcp_max_cwnd,
    )
    with arming(spec.audited, sim, net) as (auditor, monitor):
        # Background TCPs run to the leaf receivers only: in figure 10 the
        # interior G3x nodes join the multicast group but have no TCP of
        # their own (the paper's WTCP/BTCP rows show leaf RTTs).
        tcp_flows: Dict[str, TcpFlow] = {}
        extra_flows: List[TcpFlow] = []
        for receiver in info.leaves:
            for k in range(spec.tcp_per_receiver):
                name = flow_id("tcp", f"{receiver}.{k}")
                flow = TcpFlow(sim, net, name, info.root, receiver, config=tcp_config)
                flow.sender.monitor = monitor
                flow.start(start_rng.uniform(0.0, 1.0))
                if k == 0:
                    tcp_flows[receiver] = flow
                else:
                    extra_flows.append(flow)

        rla_config = RLAConfig(
            packet_size=spec.packet_size,
            phase_jitter=jitter,
            eta=spec.eta,
            rexmit_thresh=spec.rexmit_thresh,
            forced_cut_enabled=spec.forced_cut_enabled,
            rtt_scaled_pthresh=spec.resolved_generalized(),
        )
        sessions = []
        for s in range(spec.rla_sessions):
            session = RLASession(
                sim, net, flow_id("rla", s), info.root, receivers, config=rla_config
            )
            session.sender.monitor = monitor
            session.start(start_rng.uniform(0.0, 1.0))
            sessions.append(session)

    return TreeWorld(
        spec=spec, sim=sim, net=net, info=info, receivers=receivers,
        gateways=gateways, tcp_flows=tcp_flows, extra_flows=extra_flows,
        sessions=sessions, auditor=auditor,
    )


#: Kept under its old name for ``benchmarks/rlabench/micro.py``, which
#: imports it from here and may not change with this module.
advance_tree_world = advance_world


def finalize_tree_world(world: TreeWorld) -> TreeExperimentResult:
    """Collect reports and audit verdicts from a fully advanced world."""
    spec = world.spec
    stats = world.stats()
    world.audit(stats)
    return TreeExperimentResult(
        spec=spec,
        rla=[session.report() for session in world.sessions],
        tcp={receiver: flow.report()
             for receiver, flow in world.tcp_flows.items()},
        tiers=congestion_tiers(spec.case, world.info, world.receivers),
        receivers=world.receivers,
        stats=stats,
    )


def run_tree_experiment(
    spec: TreeExperimentSpec,
    checkpoint_at: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
) -> TreeExperimentResult:
    """Build, warm up, measure, and report one §5 experiment.

    ``checkpoint_at``/``checkpoint_path`` write a resumable snapshot on
    the way to the same result (see :func:`repro.lifecycle.run_world`).
    """
    return run_world(build_tree_world(spec), checkpoint_at, checkpoint_path)


#: Kept under its old name for ``benchmarks/rlabench/micro.py``, which
#: times ``RunSpec.key`` on a tree spec built with it.
tree_runspec = runspec


def run_tree_experiments(
    specs: Dict[Hashable, TreeExperimentSpec], **runtime: Any,
) -> Dict[Hashable, TreeExperimentResult]:
    """Run a keyed grid of tree experiments, serially or via the runtime.

    Results come back keyed like the input, in input order.  ``runtime``
    is :func:`repro.lifecycle.run_many`'s option set (``workers``,
    ``cache``, ``outcomes``, ``checkpoint_at``, ``checkpoint_dir``);
    whichever side of it runs, the results are byte-identical: each run's
    randomness is fully determined by its spec.
    """
    return dict(zip(specs, run_many(specs.values(), **runtime)))
