"""Parameter sweeps around the paper's operating point.

The paper evaluates one share (100 pkt/s), one buffer (20 packets) and
two receiver populations (27 and 36).  These sweeps probe how the RLA's
fairness behaves as each knob moves — the sensitivity analysis a
deployment would want:

* :func:`sweep_receiver_count` — how the RLA/TCP ratio scales with the
  number of receivers (the ``n`` in the Theorem bounds);
* :func:`sweep_buffer_size` — robustness to gateway buffer provisioning;
* :func:`sweep_share` — robustness to the absolute bottleneck speed.

All sweeps run the symmetric restricted topology (figure 1) where the
expected outcome is near-absolute fairness at every point.

All sweeps pass ``**runtime`` (``workers``, ``cache``, ``outcomes``) to
:func:`repro.lifecycle.run_many`: with ``workers`` or ``cache`` set they
fan out through :mod:`repro.runtime` (parallel execution + on-disk result
caching) and return rows byte-identical to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List

from ..errors import ConfigurationError
from ..lifecycle import World, arming, run_many, run_world
from ..topology.restricted import RestrictedSpec, build_restricted
from ..units import check_horizon, pps_to_bps, transmission_time

if TYPE_CHECKING:
    from ..rla.session import RLASession
    from ..sim.engine import Simulator
    from ..tcp.flow import TcpFlow


@dataclass
class SymmetricSpec:
    """One symmetric point: n branches at (1 TCP + RLA) * share each."""

    n_receivers: int
    share_pps: float
    buffer_pkts: int
    duration: float
    warmup: float
    seed: int
    gateway: str
    audited: bool = False
    #: The field varied by the sweep this point belongs to; it only names
    #: the run in metric tables.
    knob: str = "n_receivers"

    # how repro.lifecycle runs this spec (class attributes, not fields)
    runner = "repro.experiments.sweeps:run_symmetric_spec"
    checkpointable = False

    def run_label(self) -> str:
        return f"sweep {self.knob}={getattr(self, self.knob)} ({self.gateway})"

    def validate(self) -> "SymmetricSpec":
        check_horizon(self.duration, self.warmup)
        return self


@dataclass
class SymmetricFluidSpec(SymmetricSpec):
    """The same point, integrated by :mod:`repro.fluid` instead of simulated."""

    runner = "repro.fluid.adapters:run_symmetric_fluid_spec"


@dataclass
class SymmetricWorld(World):
    """A live (or restored) symmetric sweep point."""

    spec: SymmetricSpec
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
        return f"symmetric n={self.spec.n_receivers}/{self.spec.gateway}"

    def finalize(self) -> Dict[str, float]:
        return finalize_symmetric_world(self)


def build_symmetric_world(spec: SymmetricSpec) -> SymmetricWorld:
    """The restricted topology with one TCP per branch and the RLA session."""
    from ..rla.config import RLAConfig
    from ..rla.session import RLASession
    from ..sim.engine import Simulator
    from ..tcp.config import TcpConfig
    from ..tcp.flow import TcpFlow

    spec.validate()
    mu = 2 * spec.share_pps  # 1 TCP + the multicast session per branch
    topology = RestrictedSpec(
        mu_pps=[mu] * spec.n_receivers,
        m=[1] * spec.n_receivers,
        gateway=spec.gateway,
        buffer_pkts=spec.buffer_pkts,
    )
    sim = Simulator(seed=spec.seed)
    net, receivers = build_restricted(sim, topology)
    gateways = [link.gateway for link in net.links.values()]
    jitter = (transmission_time(topology.packet_size, pps_to_bps(mu))
              if spec.gateway == "droptail" else None)
    with arming(spec.audited, sim, net) as (auditor, monitor):
        flows: List[TcpFlow] = []
        for index, receiver in enumerate(receivers):
            flow = TcpFlow(sim, net, f"tcp-{index}", "S", receiver,
                           config=TcpConfig(phase_jitter=jitter))
            flow.sender.monitor = monitor
            flow.start(0.1 * index)
            flows.append(flow)
        session = RLASession(sim, net, "rla-0", "S", receivers,
                             config=RLAConfig(phase_jitter=jitter))
        session.sender.monitor = monitor
        session.start(0.05)
    return SymmetricWorld(spec=spec, sim=sim, gateways=gateways, flows=flows,
                          session=session, auditor=auditor)


def finalize_symmetric_world(world: SymmetricWorld) -> Dict[str, float]:
    """The sweep row of a fully advanced symmetric world."""
    from ..models.fairness import fairness_columns

    spec = world.spec
    rla = world.session.report()
    wtcp = min(flow.report()["throughput_pps"] for flow in world.flows)
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
    }


#: Sweep backends: packet-level simulation, or the mean-field fluid
#: model of :mod:`repro.fluid` integrating the same symmetric system.
SWEEP_BACKENDS = {"packet": SymmetricSpec, "fluid": SymmetricFluidSpec}


def run_symmetric_spec(spec: SymmetricSpec) -> Dict[str, float]:
    """Simulate one symmetric sweep point and return its row."""
    return run_world(build_symmetric_world(spec))


def _sweep(knob: str, values: Iterable[Any], backend: str, audited: bool,
           runtime: Dict[str, Any], **fixed: Any) -> List[Dict[str, float]]:
    """Rows of one sweep: ``knob`` takes each value, ``fixed`` holds the rest."""
    if backend not in SWEEP_BACKENDS:
        raise ConfigurationError(
            f"unknown sweep backend {backend!r}; expected one of "
            f"{tuple(SWEEP_BACKENDS)}"
        )
    if audited and backend == "fluid":
        raise ConfigurationError(
            "the conservation auditor tracks packets; a fluid run has "
            "none to audit"
        )
    point = SWEEP_BACKENDS[backend]
    return run_many(
        [point(**{**fixed, knob: value}, audited=audited, knob=knob)
         for value in values], **runtime,
    )


def sweep_receiver_count(
    counts: Iterable[int] = (2, 4, 8, 12),
    share_pps: float = 100.0,
    duration: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
    gateway: str = "droptail",
    audited: bool = False,
    backend: str = "packet",
    **runtime: Any,
) -> List[Dict[str, float]]:
    """Fairness ratio as the receiver population grows."""
    return _sweep("n_receivers", counts, backend, audited, runtime,
                  share_pps=share_pps, buffer_pkts=20, duration=duration,
                  warmup=warmup, seed=seed, gateway=gateway)


def sweep_buffer_size(
    buffers: Iterable[int] = (5, 10, 20, 40),
    n_receivers: int = 3,
    share_pps: float = 100.0,
    duration: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
    gateway: str = "droptail",
    audited: bool = False,
    backend: str = "packet",
    **runtime: Any,
) -> List[Dict[str, float]]:
    """Fairness ratio across gateway buffer sizes."""
    return _sweep("buffer_pkts", buffers, backend, audited, runtime,
                  n_receivers=n_receivers, share_pps=share_pps,
                  duration=duration, warmup=warmup, seed=seed, gateway=gateway)


def sweep_share(
    shares: Iterable[float] = (50.0, 100.0, 200.0),
    n_receivers: int = 3,
    duration: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
    gateway: str = "droptail",
    audited: bool = False,
    backend: str = "packet",
    **runtime: Any,
) -> List[Dict[str, float]]:
    """Fairness ratio across absolute bottleneck speeds."""
    return _sweep("share_pps", shares, backend, audited, runtime,
                  n_receivers=n_receivers, buffer_pkts=20, duration=duration,
                  warmup=warmup, seed=seed, gateway=gateway)


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
