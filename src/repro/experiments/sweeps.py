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

All sweeps accept ``workers``/``cache``: with either set they fan out
through :mod:`repro.runtime` (parallel execution + on-disk result
caching) and return rows byte-identical to the serial path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..models.fairness import check_essential_fairness
from ..rla.config import RLAConfig
from ..rla.session import RLASession
from ..sim.engine import Simulator
from ..tcp.config import TcpConfig
from ..tcp.flow import TcpFlow
from ..topology.restricted import RestrictedSpec, build_restricted
from ..units import pps_to_bps, transmission_time


def _run_symmetric(
    n_receivers: int,
    share_pps: float,
    buffer_pkts: int,
    duration: float,
    warmup: float,
    seed: int,
    gateway: str,
    audited: bool = False,
) -> Dict[str, float]:
    """One symmetric run: n branches at (1 TCP + RLA) * share each."""
    mu = 2 * share_pps  # 1 TCP + the multicast session per branch
    spec = RestrictedSpec(
        mu_pps=[mu] * n_receivers,
        m=[1] * n_receivers,
        gateway=gateway,
        buffer_pkts=buffer_pkts,
    )
    sim = Simulator(seed=seed)
    net, receivers = build_restricted(sim, spec)
    # Peak occupancy comes from the gateways' native counters; no
    # per-enqueue hook means the enqueue fast path stays hook-free.
    gateways = [link.gateway for link in net.links.values()]
    auditor = monitor = None
    if audited:
        from ..audit import arm

        auditor = arm(sim, net)
        monitor = auditor.monitor
    jitter = (transmission_time(spec.packet_size, pps_to_bps(mu))
              if gateway == "droptail" else None)
    try:
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
        sim.run(until=warmup)
        session.mark()
        for flow in flows:
            flow.mark()
        sim.run(until=warmup + duration)
        rla = session.report()
        tcp_rates = [flow.report()["throughput_pps"] for flow in flows]
        wtcp = min(tcp_rates)
        n = max(rla["num_trouble"], 1)
        verdict = check_essential_fairness(
            max(rla["throughput_pps"], 1e-9), max(wtcp, 1e-9), n, gateway
        )
        sim_stats: Dict[str, float] = {
            "events": sim.events_executed,
            "drops": sum(gw.dropped for gw in gateways),
            "peak_queue_depth": max(gw.peak_depth for gw in gateways),
            "sim_time": sim.now,
        }
        if auditor is not None:
            for flow in flows:
                monitor.check_tcp(flow.sender)
            monitor.check_rla(session.sender)
            auditor.verify()
            sim_stats["audit_checks"] = monitor.checks_run
            sim_stats["violations"] = monitor.violation_count
        return {
            "n_receivers": n_receivers,
            "share_pps": share_pps,
            "buffer_pkts": buffer_pkts,
            "rla_pps": rla["throughput_pps"],
            "rla_cwnd": rla["mean_cwnd"],
            "wtcp_pps": wtcp,
            "ratio": verdict.ratio,
            "fair": verdict.fair,
            "lower": verdict.lower,
            "upper": verdict.upper,
            "num_trouble": n,
            "window_cuts": rla["window_cuts"],
            "signals": rla["congestion_signals"],
            "sim_stats": sim_stats,
        }
    finally:
        if auditor is not None:
            auditor.disarm()


# ----------------------------------------------------------------------
# parallel-runtime wiring
# ----------------------------------------------------------------------
#: Entrypoint path worker processes resolve to run one symmetric point.
SYMMETRIC_ENTRYPOINT = "repro.experiments.sweeps:run_symmetric_spec"

#: Sweep backends: packet-level simulation, or the mean-field fluid
#: model of :mod:`repro.fluid` integrating the same symmetric system.
SWEEP_BACKENDS = ("packet", "fluid")


def run_symmetric_spec(params: Dict[str, Any]) -> Dict[str, float]:
    """:mod:`repro.runtime` entrypoint for one symmetric sweep point."""
    return _run_symmetric(
        n_receivers=int(params["n_receivers"]),
        share_pps=float(params["share_pps"]),
        buffer_pkts=int(params["buffer_pkts"]),
        duration=float(params["duration"]),
        warmup=float(params["warmup"]),
        seed=int(params["seed"]),
        gateway=str(params["gateway"]),
        audited=bool(params.get("audited", False)),
    )


def _backend_entrypoint(backend: str) -> str:
    """The runtime entrypoint implementing one sweep point on ``backend``."""
    if backend == "packet":
        return SYMMETRIC_ENTRYPOINT
    if backend == "fluid":
        from ..fluid.adapters import FLUID_SYMMETRIC_ENTRYPOINT

        return FLUID_SYMMETRIC_ENTRYPOINT
    from ..errors import ConfigurationError

    raise ConfigurationError(
        f"unknown sweep backend {backend!r}; expected one of {SWEEP_BACKENDS}"
    )


def symmetric_runspec(label_knob: str, entrypoint: str = SYMMETRIC_ENTRYPOINT,
                      **params):
    """A content-addressed RunSpec for one symmetric sweep point."""
    from ..runtime import RunSpec

    return RunSpec(entrypoint, params,
                   label=f"sweep {label_knob}={params[label_knob]} "
                         f"({params['gateway']})")


def _run_points(
    points: List[Dict[str, Any]],
    label_knob: str,
    workers: Optional[int],
    cache,
    outcomes: Optional[List[Any]],
    backend: str = "packet",
) -> List[Dict[str, float]]:
    """Serial loop when the runtime is not requested, fan-out when it is."""
    entrypoint = _backend_entrypoint(backend)
    if backend == "fluid" and any(p.get("audited") for p in points):
        from ..errors import ConfigurationError

        raise ConfigurationError(
            "the conservation auditor tracks packets; a fluid run has "
            "none to audit"
        )
    if workers is None and cache is None:
        if backend == "fluid":
            from ..fluid.adapters import run_symmetric_fluid_spec

            return [run_symmetric_fluid_spec(point) for point in points]
        return [run_symmetric_spec(point) for point in points]
    from ..runtime import run_specs

    specs = [symmetric_runspec(label_knob, entrypoint, **point)
             for point in points]
    outs = run_specs(specs, workers=workers, cache=cache)
    if outcomes is not None:
        outcomes.extend(outs)
    return [out.result for out in outs]


def sweep_receiver_count(
    counts: Iterable[int] = (2, 4, 8, 12),
    share_pps: float = 100.0,
    duration: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
    gateway: str = "droptail",
    workers: Optional[int] = None,
    cache=None,
    outcomes: Optional[List[Any]] = None,
    audited: bool = False,
    backend: str = "packet",
) -> List[Dict[str, float]]:
    """Fairness ratio as the receiver population grows."""
    points = [
        dict(n_receivers=n, share_pps=share_pps, buffer_pkts=20,
             duration=duration, warmup=warmup, seed=seed, gateway=gateway,
             **({"audited": True} if audited else {}))
        for n in counts
    ]
    return _run_points(points, "n_receivers", workers, cache, outcomes,
                       backend=backend)


def sweep_buffer_size(
    buffers: Iterable[int] = (5, 10, 20, 40),
    n_receivers: int = 3,
    share_pps: float = 100.0,
    duration: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
    gateway: str = "droptail",
    workers: Optional[int] = None,
    cache=None,
    outcomes: Optional[List[Any]] = None,
    audited: bool = False,
    backend: str = "packet",
) -> List[Dict[str, float]]:
    """Fairness ratio across gateway buffer sizes."""
    points = [
        dict(n_receivers=n_receivers, share_pps=share_pps, buffer_pkts=buffer,
             duration=duration, warmup=warmup, seed=seed, gateway=gateway,
             **({"audited": True} if audited else {}))
        for buffer in buffers
    ]
    return _run_points(points, "buffer_pkts", workers, cache, outcomes,
                       backend=backend)


def sweep_share(
    shares: Iterable[float] = (50.0, 100.0, 200.0),
    n_receivers: int = 3,
    duration: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
    gateway: str = "droptail",
    workers: Optional[int] = None,
    cache=None,
    outcomes: Optional[List[Any]] = None,
    audited: bool = False,
    backend: str = "packet",
) -> List[Dict[str, float]]:
    """Fairness ratio across absolute bottleneck speeds."""
    points = [
        dict(n_receivers=n_receivers, share_pps=share, buffer_pkts=20,
             duration=duration, warmup=warmup, seed=seed, gateway=gateway,
             **({"audited": True} if audited else {}))
        for share in shares
    ]
    return _run_points(points, "share_pps", workers, cache, outcomes,
                       backend=backend)


def format_sweep(rows: List[Dict[str, float]], knob: str) -> str:
    """Compact text table of a sweep's outcome."""
    lines = [f"{knob:>12s}  {'RLA pkt/s':>10s}  {'WTCP':>8s}  {'ratio':>6s}  "
             f"{'bounds':>16s}  fair"]
    for row in rows:
        bounds = f"({row['lower']:.2f}, {row['upper']:.2f})"
        lines.append(
            f"{row[knob]:>12.0f}  {row['rla_pps']:>10.1f}  "
            f"{row['wtcp_pps']:>8.1f}  {row['ratio']:>6.2f}  "
            f"{bounds:>16s}  {'yes' if row['fair'] else 'NO'}"
        )
    return "\n".join(lines)
