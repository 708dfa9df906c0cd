"""Scenario execution: compile a :class:`ScenarioSpec` into one run.

:func:`run_scenario` is a pure function of the spec — topology, traffic
and churn randomness all come from dedicated named RNG streams of the
run's seed, so the same spec yields byte-identical results in any
process.  :class:`ScenarioSpec` names it as its runner, so scenario
suites inherit :func:`repro.lifecycle.run_many`'s process pool, on-disk
result cache and ``--audit`` machinery.

Reported per scenario: the RLA session's reliable throughput, the
slowest competing TCP flow's throughput (the paper's WTCP row), their
ratio, and Jain's fairness index over the RLA + all long-lived TCP
allocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..lifecycle import (
    RESUME_ENTRYPOINT,
    World,
    advance_world,
    arming,
    run_world,
    snapshot_world,
)
from ..models.fairness import bound_columns, check_essential_fairness, jain_index
from ..rla.config import RLAConfig
from ..rla.session import RLASession
from ..sim.engine import Simulator
from ..tcp.config import TcpConfig
from ..units import DEFAULT_PACKET_SIZE
from .churn import CHURN_STREAM, ChurnDriver, churn_schedule
from .spec import ScenarioSpec
from .topologies import build_topology
from .traffic import TRAFFIC_STREAM, place_traffic

#: Name of the RNG stream that draws the receiver set when there is no churn.
MEMBERS_STREAM = "scenario.members"


@dataclass
class ScenarioWorld(World):
    """A live (or restored) scenario run between build and report."""

    spec: ScenarioSpec
    sim: Simulator
    topo: Any
    gateways: List[Any]
    placed: Any
    session: RLASession
    driver: ChurnDriver
    auditor: Any = None
    marked: bool = False

    def marks(self) -> List[Any]:
        """The session, then the long-lived TCP flows."""
        return [self.session] + self.placed.tcp_flows

    def tcp_senders(self) -> List[Any]:
        """Senders of the long-lived flows, then of every mouse."""
        mice = self.placed.mice.mice if self.placed.mice is not None else []
        return [flow.sender for flow in self.placed.tcp_flows + mice]

    def rla_senders(self) -> List[Any]:
        """The session's sender."""
        return [self.session.sender]

    def label(self) -> str:
        """The scenario's name."""
        return self.spec.name

    def finalize(self) -> Dict[str, Any]:
        """The scenario's report row."""
        return finalize_scenario_world(self)


def build_scenario_world(spec: ScenarioSpec) -> ScenarioWorld:
    """Construct topology, membership, traffic and churn for one scenario.

    On an audited spec this installs the process-global packet-creation
    hook; callers must eventually :meth:`ScenarioWorld.disarm`
    (:func:`repro.lifecycle.run_world` does, in every outcome).
    """
    spec.validate()
    sim = Simulator(seed=spec.seed)
    mean_pkt = (spec.packet_sizes.mean_size if spec.packet_sizes is not None
                else DEFAULT_PACKET_SIZE)
    topo = build_topology(sim, spec.topology, spec.gateway, ecn=spec.ecn,
                          mean_packet_size=mean_pkt)

    # -- membership: fixed draw or churn schedule ----------------------
    churn_rng = sim.rng.stream(CHURN_STREAM)
    if spec.churn is not None:
        initial, events = churn_schedule(
            spec.churn, topo.hosts, spec.horizon, churn_rng
        )
    else:
        from ..errors import ConfigurationError

        if spec.receivers > len(topo.hosts):
            raise ConfigurationError(
                f"scenario {spec.name!r} wants {spec.receivers} receivers, "
                f"topology only generated {len(topo.hosts)} hosts"
            )
        members_rng = sim.rng.stream(MEMBERS_STREAM)
        pool = list(topo.hosts)
        initial = [pool.pop(members_rng.randrange(len(pool)))
                   for _ in range(spec.receivers)]
        events = []

    gateways = [link.gateway for link in topo.net.links.values()]
    with arming(spec.audited, sim, topo.net) as (auditor, monitor):
        # -- background traffic then the multicast session -------------
        # ECN/mix kwargs are passed only when the spec opts in, so
        # opted-out scenarios construct the exact objects (and consume
        # the exact RNG sequences) they always have.
        traffic_rng = sim.rng.stream(TRAFFIC_STREAM)
        tcp_config = TcpConfig(ecn=True) if spec.ecn else None
        placed = place_traffic(
            sim, topo.net, spec.traffic, topo.hosts, topo.source,
            duration=spec.horizon, rng=traffic_rng,
            tcp_config=tcp_config, packet_sizes=spec.packet_sizes,
        )
        for flow in placed.tcp_flows:
            flow.sender.monitor = monitor
        rla_config = RLAConfig(ecn=True) if spec.ecn else None
        session = RLASession(sim, topo.net, "rla-0", topo.source, initial,
                             config=rla_config)
        session.sender.monitor = monitor
        session.start(0.05)
        driver = ChurnDriver(sim, session, events)
        driver.start()

    return ScenarioWorld(
        spec=spec, sim=sim, topo=topo, gateways=gateways, placed=placed,
        session=session, driver=driver, auditor=auditor,
    )


#: Kept under its old name for ``benchmarks/rlabench/micro.py``, which
#: imports it from here and may not change with this module.
advance_scenario_world = advance_world


def finalize_scenario_world(world: ScenarioWorld) -> Dict[str, Any]:
    """Collect the report row from a fully advanced scenario world."""
    spec = world.spec
    placed = world.placed
    rla = world.session.report()
    tcp_rates = [flow.report()["throughput_pps"]
                 for flow in placed.tcp_flows]
    rla_pps = max(rla["throughput_pps"], 0.0)
    wtcp = min(tcp_rates) if tcp_rates else float("nan")
    ratio = rla_pps / wtcp if tcp_rates and wtcp > 0 else float("nan")
    jain = (jain_index([rla_pps] + [max(r, 0.0) for r in tcp_rates])
            if tcp_rates else 1.0)

    sim_stats = world.stats()
    # Extra accounting for the new AQM disciplines only: legacy drop-tail
    # and packet-mode RED rows keep their exact key set (byte identity
    # with pre-matrix outputs).
    if spec.gateway not in ("droptail", "red") or spec.ecn:
        sim_stats["evicted"] = sum(gw.evicted for gw in world.gateways)
        sim_stats["ecn_marks"] = sum(getattr(gw, "ecn_marks", 0)
                                     for gw in world.gateways)
    world.audit(sim_stats)

    # -- per-cohort fairness (RTT-cohort topologies only) ---------------
    # Emitted only when the topology labelled its hosts, so cohort-less
    # scenario rows keep their historical key set exactly.
    cohort_rows = _cohort_fairness(world, rla_pps, tcp_rates)
    if cohort_rows:
        sim_stats["cohorts"] = cohort_rows

    row: Dict[str, Any] = {
        "scenario": spec.name,
        "topology": type(spec.topology).__name__,
        "gateway": spec.gateway,
        "seed": spec.seed,
        "n_nodes": len(world.topo.net.nodes),
        "n_links": world.topo.n_links,
        "rla_pps": rla_pps,
        "wtcp_pps": wtcp,
        "ratio": ratio,
        "jain": jain,
        "n_receivers": rla["n_receivers"],
        "joins": rla["member_joins"],
        "leaves": rla["member_leaves"],
        "churn_applied": len(world.driver.applied),
        "num_trouble": rla["num_trouble"],
        "rtx_multicast": rla["rtx_multicast"],
        "rtx_unicast": rla["rtx_unicast"],
        "sim_stats": sim_stats,
    }
    if cohort_rows:
        row["cohorts"] = cohort_rows
    if placed.mice is not None:
        row.update(placed.mice.stats())
    return row


def _cohort_fairness(
    world: ScenarioWorld, rla_pps: float, tcp_rates: List[float]
) -> Dict[str, Dict[str, Any]]:
    """Per-cohort Jain indices and essential-fairness verdicts.

    Each cohort is scored as the RLA session vs the long-lived TCP flows
    whose receivers sit in that cohort: the Jain index over those
    allocations, plus the Theorem I/II bound check of ``rla / wtcp``
    against the cohort's slowest flow.  ``bound_ok`` is ``None`` when that
    flow's rate is zero or the cohort has no TCP flow to compare against.
    """
    cohorts = getattr(world.topo, "cohorts", {})
    if not cohorts:
        return {}
    n = max(1, world.session.sender.n_receivers)
    by_label: Dict[str, List[float]] = {}
    for (flow_id, dst), rate in zip(world.placed.tcp_placements, tcp_rates):
        label = cohorts.get(dst)
        if label is not None:
            by_label.setdefault(label, []).append(max(rate, 0.0))
    result: Dict[str, Dict[str, Any]] = {}
    for label in sorted(set(cohorts.values())):
        rates = by_label.get(label, [])
        wtcp = min(rates) if rates else float("nan")
        result[label] = {
            "n_flows": len(rates),
            "wtcp_pps": wtcp,
            "jain": jain_index([rla_pps] + rates) if rates else 1.0,
            "ratio": (rla_pps / wtcp if rates and wtcp > 0 else float("nan")),
            **bound_columns(check_essential_fairness(
                rla_pps, wtcp, n, world.spec.gateway)),
        }
    return result


#: Kept under its old name for ``benchmarks/rlabench/micro.py``, which
#: imports it from here and may not change with this module.
SCENARIO_RESUME_ENTRYPOINT = RESUME_ENTRYPOINT


def run_scenario(
    spec: ScenarioSpec,
    checkpoint_at: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Execute one scenario and return its JSON-friendly report row.

    ``checkpoint_at``/``checkpoint_path`` write a resumable snapshot on
    the way to the same row (see :func:`repro.lifecycle.run_world`).
    """
    return run_world(build_scenario_world(spec), checkpoint_at,
                     checkpoint_path)


def checkpoint_scenario(spec: ScenarioSpec, at: float,
                        path: Optional[str] = None):
    """Run a fresh scenario up to ``at`` and return (and save) a snapshot."""
    world = build_scenario_world(spec)
    try:
        snapshot = snapshot_world(world, at=at)
    finally:
        world.disarm()
    if path is not None:
        from ..checkpoint import save

        save(snapshot, path)
    return snapshot


def format_scenarios(rows: List[Dict[str, Any]]) -> str:
    """Fixed-width scenario table: fairness, churn and audit columns."""
    header = (f"{'scenario':<20} {'topology':<22} {'rla':>8} {'wtcp':>8} "
              f"{'ratio':>7} {'jain':>6} {'recv':>4} {'join':>4} {'leave':>5} "
              f"{'viol':>4}")
    lines = [header, "-" * len(header)]
    for row in rows:
        violations = row.get("sim_stats", {}).get("violations", "-")
        ratio = row["ratio"]
        ratio_s = f"{ratio:7.3f}" if not math.isnan(ratio) else f"{'-':>7}"
        wtcp = row["wtcp_pps"]
        wtcp_s = f"{wtcp:8.2f}" if not math.isnan(wtcp) else f"{'-':>8}"
        lines.append(
            f"{row['scenario']:<20} {row['topology']:<22} "
            f"{row['rla_pps']:8.2f} {wtcp_s} {ratio_s} {row['jain']:6.3f} "
            f"{row['n_receivers']:4d} {row['joins']:4d} {row['leaves']:5d} "
            f"{violations!s:>4}"
        )
    return "\n".join(lines)
