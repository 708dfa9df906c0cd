"""Parameter sweeps around the paper's operating point.

The paper evaluates one share (100 pkt/s), one buffer (20 packets) and
two receiver populations (27 and 36).  :func:`sweep` probes how the
RLA's fairness behaves as one knob moves — the sensitivity analysis a
deployment would want: ``n_receivers`` (the ``n`` in the Theorem
bounds), ``buffer_pkts`` (gateway provisioning) or ``share_pps`` (the
absolute bottleneck speed).

Every point is a :class:`RestrictedRunSpec`, the one packet run of
figure 1 (which the η/forced-cut/phase/ECN benches and the examples also
run); ``backend="fluid"`` integrates each point's twin,
:func:`repro.fluid.adapters.restricted_fluid_spec`, instead.

A sweep passes ``**runtime`` (``workers``, ``cache``, ``outcomes``) to
:func:`repro.lifecycle.run_many`: with ``workers`` or ``cache`` set it
fans out through :mod:`repro.runtime` (parallel execution + on-disk
result caching) and returns rows byte-identical to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from ..errors import ConfigurationError
from ..lifecycle import World, arming, run_many, run_world
from ..topology.restricted import RestrictedSpec, build_restricted
from ..units import check_horizon, pps_to_bps

if TYPE_CHECKING:
    from ..rla.config import RLAConfig
    from ..rla.session import RLASession
    from ..sim.engine import Simulator
    from ..tcp.config import TcpConfig
    from ..tcp.flow import TcpFlow


@dataclass
class RestrictedRunSpec:
    """One packet run of figure 1: one TCP per branch and the RLA session.

    ``rla``/``tcp`` left ``None`` are the paper's endpoints for the
    topology: §3.1's phase jitter at the slowest branch (none on RED) and
    ECN exactly when the gateways mark.  A config that is given is used
    as it is.
    """

    topology: RestrictedSpec
    duration: float
    warmup: float
    seed: int
    audited: bool = False
    #: The field varied by the sweep this point belongs to; it only names
    #: the run in metric tables.
    knob: str = "n_receivers"
    rla: Optional[RLAConfig] = None
    tcp: Optional[TcpConfig] = None

    # how repro.lifecycle runs this spec (class attributes, not fields)
    runner = "repro.experiments.sweeps:run_symmetric_spec"
    checkpointable = False

    @property
    def n_receivers(self) -> int:
        return len(self.topology.mu_pps)

    @property
    def share_pps(self) -> float:
        """Per-flow share of the slowest branch (1 TCP + the session)."""
        return min(self.topology.mu_pps) / 2

    @property
    def buffer_pkts(self) -> int:
        return self.topology.buffer_pkts

    @property
    def gateway(self) -> str:
        return self.topology.gateway

    def run_label(self) -> str:
        return (f"sweep {self.knob}={getattr(self, self.knob)} "
                f"({self.gateway}){self.distinctions()}")

    def distinctions(self) -> str:
        """What sets this run apart from a plain sweep point, as label
        text ("" for one): unequal branches, ECN marks, and each given
        endpoint config with the fields it changes from the defaults."""
        mu_pps = self.topology.mu_pps
        parts = []
        if len(set(mu_pps)) > 1:
            parts.append("mu_pps=" + "/".join(f"{mu:g}" for mu in mu_pps))
        if self.topology.ecn:
            parts.append("ecn")
        for name, config in (("rla", self.rla), ("tcp", self.tcp)):
            if config is not None:
                default = vars(type(config)())
                parts.append(f"{name}(" + ",".join(
                    f"{key}={value!r}" for key, value in vars(config).items()
                    if value != default[key]) + ")")
        return "".join(" " + part for part in parts)

    def validate(self) -> "RestrictedRunSpec":
        check_horizon(self.duration, self.warmup)
        self.topology.validate()
        return self


def symmetric_point(n_receivers: int, share_pps: float, buffer_pkts: int,
                    duration: float, warmup: float, seed: int, gateway: str,
                    audited: bool = False,
                    knob: str = "n_receivers") -> RestrictedRunSpec:
    """A sweep point: n equal branches at (1 TCP + RLA) * share each."""
    topology = RestrictedSpec(mu_pps=[2 * share_pps] * n_receivers,
                              gateway=gateway, buffer_pkts=buffer_pkts)
    return RestrictedRunSpec(topology, duration, warmup, seed,
                             audited=audited, knob=knob)


@dataclass
class SymmetricFluidSpec:
    """A figure 1 run integrated by :mod:`repro.fluid` instead of simulated;
    a run with no fluid twin is refused here, before anything runs."""

    point: RestrictedRunSpec

    runner = "repro.fluid.adapters:run_symmetric_fluid_spec"
    checkpointable = False

    def __post_init__(self) -> None:
        from ..fluid.adapters import restricted_fluid_spec

        restricted_fluid_spec(self.point)

    def run_label(self) -> str:
        return self.point.run_label()


@dataclass
class RestrictedWorld(World):
    """A live (or restored) figure 1 run."""

    spec: RestrictedRunSpec
    sim: Simulator
    gateways: List[Any]
    flows: List[TcpFlow]
    session: RLASession
    auditor: Any = None
    marked: bool = False

    def marks(self) -> List[Any]:
        return [self.session] + self.flows

    def tcp_senders(self) -> List[Any]:
        return [flow.sender for flow in self.flows]

    def rla_senders(self) -> List[Any]:
        return [self.session.sender]

    def label(self) -> str:
        spec = self.spec
        return (f"restricted n={spec.n_receivers}/{spec.gateway}"
                f"{spec.distinctions()}")

    def finalize(self) -> Dict[str, Any]:
        return finalize_restricted_world(self)


def build_restricted_world(spec: RestrictedRunSpec) -> RestrictedWorld:
    """The figure 1 topology with one TCP per branch and the RLA session."""
    from ..rla.config import RLAConfig
    from ..rla.session import RLASession
    from ..sim.engine import Simulator
    from ..tcp.config import TcpConfig
    from ..tcp.flow import TcpFlow
    from ..tcp.sender import phase_jitter

    topology = spec.validate().topology
    sim = Simulator(seed=spec.seed)
    net, receivers = build_restricted(sim, topology)
    gateways = [link.gateway for link in net.links.values()]
    jitter = phase_jitter(topology.gateway, pps_to_bps(min(topology.mu_pps)))
    tcp = spec.tcp or TcpConfig(phase_jitter=jitter, ecn=topology.ecn)
    rla = spec.rla or RLAConfig(phase_jitter=jitter, ecn=topology.ecn)
    with arming(spec.audited, sim, net) as (auditor, monitor):
        flows: List[TcpFlow] = []
        for index, receiver in enumerate(receivers):
            flow = TcpFlow(sim, net, f"tcp-{index}", "S", receiver, config=tcp)
            flow.sender.monitor = monitor
            flow.start(0.1 * index)
            flows.append(flow)
        session = RLASession(sim, net, "rla-0", "S", receivers, config=rla)
        session.sender.monitor = monitor
        session.start(0.05)
    return RestrictedWorld(spec=spec, sim=sim, gateways=gateways, flows=flows,
                           session=session, auditor=auditor)


def finalize_restricted_world(world: RestrictedWorld) -> Dict[str, Any]:
    """The row of a fully advanced run, with every flow's report."""
    from ..models.fairness import fairness_columns

    spec = world.spec
    rla = world.session.report()
    tcp = [flow.report() for flow in world.flows]
    wtcp = min(report["throughput_pps"] for report in tcp)
    n = max(rla["num_trouble"], 1)
    sim_stats = world.stats()
    world.audit(sim_stats)
    return {
        "n_receivers": spec.n_receivers,
        "share_pps": spec.share_pps,
        "buffer_pkts": spec.buffer_pkts,
        "rla_pps": rla["throughput_pps"],
        "rla_cwnd": rla["mean_cwnd"],
        "wtcp_pps": wtcp,
        **fairness_columns(rla["throughput_pps"], wtcp, n, spec.gateway),
        "num_trouble": n,
        "window_cuts": rla["window_cuts"],
        "signals": rla["congestion_signals"],
        "sim_stats": sim_stats,
        "rla": rla,
        "tcp": tcp,
    }


def run_symmetric_spec(spec: RestrictedRunSpec) -> Dict[str, Any]:
    """Simulate one figure 1 run and return its row."""
    return run_world(build_restricted_world(spec))


#: What :func:`sweep` may vary: the fields :func:`symmetric_point` takes
#: that shape the topology.
KNOBS = ("n_receivers", "share_pps", "buffer_pkts")


def sweep(
    knob: str,
    values: Iterable[Any],
    *,
    n_receivers: int = 3,
    share_pps: float = 100.0,
    buffer_pkts: int = 20,
    duration: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
    gateway: str = "droptail",
    audited: bool = False,
    backend: str = "packet",
    **runtime: Any,
) -> List[Dict[str, float]]:
    """Fairness rows as ``knob`` (one of :data:`KNOBS`) takes each of
    ``values`` and the other two hold their keyword's value."""
    if knob not in KNOBS:
        raise ConfigurationError(f"unknown sweep knob {knob!r}; "
                                 f"expected one of {KNOBS}")
    if backend not in ("packet", "fluid"):
        raise ConfigurationError(f"unknown sweep backend {backend!r}; "
                                 f"expected one of ('packet', 'fluid')")
    fixed = dict(n_receivers=n_receivers, share_pps=share_pps,
                 buffer_pkts=buffer_pkts)
    points = [symmetric_point(**{**fixed, knob: value}, duration=duration,
                              warmup=warmup, seed=seed, gateway=gateway,
                              audited=audited, knob=knob)
              for value in values]
    if backend == "fluid":
        points = [SymmetricFluidSpec(point) for point in points]
    return run_many(points, **runtime)


def format_sweep(rows: List[Dict[str, float]], knob: str) -> str:
    """Compact text table of a sweep's outcome; a row without a verdict
    (a zero WTCP) reads ``n/a`` in its ratio and fair cells."""
    lines = [f"{knob:>12s}  {'RLA pkt/s':>10s}  {'WTCP':>8s}  {'ratio':>6s}  "
             f"{'bounds':>16s}  fair"]
    for row in rows:
        bounds = f"({row['lower']:.2f}, {row['upper']:.2f})"
        fair = row["fair"]
        ratio = "n/a" if fair is None else f"{row['ratio']:.2f}"
        verdict = "n/a" if fair is None else ("yes" if fair else "NO")
        lines.append(
            f"{row[knob]:>12.0f}  {row['rla_pps']:>10.1f}  "
            f"{row['wtcp_pps']:>8.1f}  {ratio:>6s}  "
            f"{bounds:>16s}  {verdict}"
        )
    return "\n".join(lines)
