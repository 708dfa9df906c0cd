"""Generic runner for the tree experiments of §5 (figures 7-10).

One function, :func:`run_tree_experiment`, builds the figure 6 tree for a
:class:`TreeCase`, attaches one background TCP connection per leaf
receiver and one (or more) RLA sessions, runs warmup + measurement, and
returns all the paper-reported metrics.  :mod:`repro.experiments.figures`
parameterizes it per figure; benchmarks call that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..errors import ConfigurationError
from ..lifecycle import World, advance_world, arming, run_world, runspec
from ..topology.cases import (
    TreeCase,
    case_bandwidths,
    case_receivers,
    congestion_tiers,
)
from ..topology.tree import build_tertiary_tree, static_tree_info
from ..units import DEFAULT_PACKET_SIZE, check_horizon, transmission_time

if TYPE_CHECKING:
    from ..models.fairness import FairnessVerdict
    from ..rla.session import RLASession
    from ..sim.engine import Simulator
    from ..tcp.flow import TcpFlow


@dataclass
class TreeExperimentSpec:
    """Everything needed to reproduce one column of a §5 table.

    The paper's setup is fixed: soft-bottleneck share 100 pkt/s, one
    background TCP per leaf receiver, 20-packet buffers, 1000-byte
    packets and the §3.3 RLA constants.  Two things follow from the
    fields rather than being set: the §3.1 phase-effect jitter (one
    bottleneck service time on drop-tail, none on RED) and
    :attr:`generalized`.
    """

    case: TreeCase
    gateway: str = "droptail"
    duration: float = 200.0
    warmup: float = 20.0
    seed: int = 1
    rla_sessions: int = 1
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
        if self.rla_sessions < 1:
            raise ConfigurationError("need at least one RLA session")
        return self

    @property
    def generalized(self) -> bool:
        """Whether the session runs the §5.3 RTT-scaled RLA: exactly when
        the case mixes RTT tiers (figure 10's G3x receivers)."""
        return self.case.receivers != "leaves"


@dataclass
class TreeExperimentResult:
    """All measurements from one tree experiment."""

    spec: TreeExperimentSpec
    #: one report per RLA session (see RLASession.report)
    rla: List[dict]
    #: per-leaf-receiver report of its background TCP flow
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

    def verdict(self) -> Optional[FairnessVerdict]:
        """Theorem I/II verdict of the first RLA session against the WTCP
        row, with ``n`` its troubled receivers (None on a zero WTCP)."""
        from ..models.fairness import check_essential_fairness

        rla = self.rla[0]
        return check_essential_fairness(
            rla["throughput_pps"], self.wtcp["throughput_pps"],
            max(rla["num_trouble"], 1), self.spec.gateway)

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
    sessions: List[RLASession]
    auditor: Any = None
    marked: bool = False

    def marks(self) -> List[Any]:
        return list(self.tcp_flows.values()) + self.sessions

    def tcp_senders(self) -> List[Any]:
        return [flow.sender for flow in self.tcp_flows.values()]

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
    from ..net.addressing import flow_id
    from ..rla.config import RLAConfig
    from ..rla.session import RLASession
    from ..sim.engine import Simulator
    from ..tcp.config import TcpConfig
    from ..tcp.flow import TcpFlow

    spec.validate()
    case = spec.case
    info = static_tree_info()
    bandwidths = case_bandwidths(case, info)
    sim = Simulator(seed=spec.seed)
    net, _ = build_tertiary_tree(
        sim, gateway=spec.gateway, link_bandwidths=bandwidths, info=info,
    )
    receivers = case_receivers(case, info)
    # §3.1: RED's randomized drops remove phase effects by themselves
    jitter = (None if spec.gateway == "red" else
              transmission_time(DEFAULT_PACKET_SIZE, min(bandwidths.values())))
    start_rng = sim.rng.stream("experiment.start")

    gateways = [link.gateway for link in net.links.values()]
    tcp_config = TcpConfig(phase_jitter=jitter, max_cwnd=spec.tcp_max_cwnd)
    with arming(spec.audited, sim, net) as (auditor, monitor):
        # Background TCPs run to the leaf receivers only: in figure 10 the
        # interior G3x nodes join the multicast group but have no TCP of
        # their own (the paper's WTCP/BTCP rows show leaf RTTs).
        tcp_flows: Dict[str, TcpFlow] = {}
        for receiver in info.leaves:
            flow = TcpFlow(sim, net, flow_id("tcp", f"{receiver}.0"),
                           info.root, receiver, config=tcp_config)
            flow.sender.monitor = monitor
            flow.start(start_rng.uniform(0.0, 1.0))
            tcp_flows[receiver] = flow

        rla_config = RLAConfig(phase_jitter=jitter,
                               rtt_scaled_pthresh=spec.generalized)
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
        gateways=gateways, tcp_flows=tcp_flows, sessions=sessions,
        auditor=auditor,
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
