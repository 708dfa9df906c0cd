"""Micro-drivers: the unit cost of one layer, through its public functions.

Each driver builds the smallest world that exercises one layer, times a
fixed number of operations and reports the cost of one.  Inputs that are
random (arrival traces, loss patterns) come from the benchmark's seed;
sizes are large enough that the cost per operation does not depend on it.
Costs are the best of ``REPEATS`` runs: these are unit costs, and the
least disturbed run is the best estimate of one.

The drivers import ``repro`` lazily and fail independently: a driver that
raises (say, after a later refactoring renames what it calls) reports 0
for its metrics and one failed check, and the others still run.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from checks import Checks

REPEATS = 3

#: Gateway disciplines of ``net.gw.<disc>.*`` (``repro.net.GATEWAY_DISCIPLINES``).
DISCIPLINES = ("droptail", "red", "red-byte", "red-adaptive", "codel", "pie")
#: Group sizes of ``rla.ack_ns.n<size>``.
RLA_SIZES = (4, 64, 256, 1024)


def _best(run: Callable[[], float]) -> float:
    return min(run() for _ in range(REPEATS))


# ---------------------------------------------------------------- sim
def sim_dispatch(scale: float, seed: int) -> Dict[str, float]:
    """Timer-chain storm: 100 chains re-arming themselves, no network."""
    from repro.sim.engine import Simulator

    def run() -> float:
        sim = Simulator(seed=1)
        links = int(600 * scale)

        def chain(remaining: int) -> None:
            if remaining > 0:
                sim.schedule_after(0.001, chain, remaining - 1)

        for _ in range(100):
            sim.schedule(0.0, chain, links)
        start = time.perf_counter()
        executed = sim.run()
        return (time.perf_counter() - start) / executed

    return {"sim.dispatch_ns": _best(run) * 1e9}


def sim_cancel(scale: float, seed: int) -> Dict[str, float]:
    """Re-arm storm: every schedule cancels its predecessor (TCP's RTO
    pattern), so the heap fills with dead entries and compacts."""
    from repro.sim.engine import Simulator

    def run() -> float:
        sim = Simulator(seed=1)
        pairs = int(40_000 * scale)
        pending = sim.schedule_after(1.0, int)
        start = time.perf_counter()
        for i in range(pairs):
            pending.cancel()
            pending = sim.schedule_after(1.0 + i * 1e-6, int)
        sim.run()
        return (time.perf_counter() - start) / pairs

    return {"sim.cancel_ns": _best(run) * 1e9}


# ---------------------------------------------------------------- net
def _timer_cost() -> float:
    """Seconds one perf_counter bracket adds to a timed operation."""
    clock = time.perf_counter
    total = 0.0
    for _ in range(20_000):
        start = clock()
        total += clock() - start
    return total / 20_000


def net_gateways(scale: float, seed: int) -> Dict[str, float]:
    """One seeded arrival/departure trace at 1.1x capacity, replayed into
    each discipline's ``enqueue`` / ``dequeue``."""
    from repro.net.network import discipline_factory
    from repro.net.packet import DATA, Packet
    from repro.sim.engine import Simulator
    from repro.units import mbps, transmission_time

    rng = random.Random(seed)
    service = transmission_time(1000, mbps(1.0))
    arrivals = int(12_000 * scale)
    sizes = [rng.choice((40, 576, 1000, 1500)) for _ in range(arrivals)]
    gaps = [rng.expovariate(1.1 / service) for _ in range(arrivals)]
    bracket = _timer_cost()
    clock = time.perf_counter
    out: Dict[str, float] = {}

    for discipline in DISCIPLINES:
        def run() -> Tuple[float, float, float]:
            sim = Simulator(seed=1)
            gateway = discipline_factory(discipline, sim, capacity=20)("bench")
            gateway.mean_pkt_time = service
            enq_s = deq_s = 0.0
            dequeues = 0
            now = 0.0
            next_departure = service
            for size, gap in zip(sizes, gaps):
                now += gap
                while next_departure <= now:
                    start = clock()
                    gateway.dequeue(next_departure)
                    deq_s += clock() - start
                    dequeues += 1
                    next_departure += service
                packet = Packet(DATA, "bench", "a", "b", 0, size)
                start = clock()
                gateway.enqueue(now, packet)
                enq_s += clock() - start
            return (enq_s / arrivals - bracket, deq_s / dequeues - bracket,
                    gateway.dropped / arrivals)

        runs = [run() for _ in range(REPEATS)]
        out[f"net.gw.{discipline}.enq_ns"] = min(r[0] for r in runs) * 1e9
        out[f"net.gw.{discipline}.deq_ns"] = min(r[1] for r in runs) * 1e9
        out[f"net.gw.{discipline}.drop_share"] = runs[0][2]
    return out


def net_link(scale: float, seed: int) -> Dict[str, float]:
    """One saturated link: a CBR source at 1.2x the line rate into a sink."""
    from repro.net.apps import CbrSource, PacketSink
    from repro.net.network import Network
    from repro.sim.engine import Simulator
    from repro.units import bps_to_pps, mbps, ms

    def run() -> float:
        sim = Simulator(seed=1)
        net = Network(sim)
        forward, _ = net.add_link("a", "b", mbps(8.0), ms(5.0))
        net.build_routes()
        PacketSink(net.node("b"), "cbr")
        CbrSource(sim, net.node("a"), "cbr", "b",
                  rate_pps=1.2 * bps_to_pps(mbps(8.0))).start()
        start = time.perf_counter()
        sim.run(until=10.0 * scale)
        return (time.perf_counter() - start) / forward.packets_sent

    return {"net.link.pkt_ns": _best(run) * 1e9}


def net_fanout(scale: float, seed: int) -> Dict[str, float]:
    """Multicast replication at a hub: cost per delivered copy, over a
    27-leaf and a 256-leaf group."""
    from repro.net.addressing import group_address
    from repro.net.apps import CbrSource, PacketSink
    from repro.net.network import Network
    from repro.sim.engine import Simulator
    from repro.units import mbps, ms

    group = group_address("bench")

    def run() -> float:
        seconds = 0.0
        copies = 0
        for leaves in (27, 256):
            sim = Simulator(seed=1)
            net = Network(sim)
            net.add_link("src", "hub", mbps(100.0), ms(1.0))
            names = [f"leaf{i}" for i in range(leaves)]
            for name in names:
                net.add_link("hub", name, mbps(100.0), ms(1.0))
            net.join_group(group, "src", names)
            sinks = [PacketSink(net.node(name), "bench") for name in names]
            CbrSource(sim, net.node("src"), "bench", group,
                      rate_pps=1000.0).start()
            start = time.perf_counter()
            sim.run(until=1.0 * scale * 27 / leaves)
            seconds += time.perf_counter() - start
            copies += sum(sink.received for sink in sinks)
        return seconds / copies

    return {"net.node.fanout_ns": _best(run) * 1e9}


# ---------------------------------------------------------------- tcp
def tcp_sack(scale: float, seed: int) -> Dict[str, float]:
    """Receiver SACK tracking + sender scoreboard on a seeded loss pattern:
    5 % of segments arrive one window late."""
    from repro.tcp.sack import ReceiverSackTracker, SenderScoreboard

    rng = random.Random(seed)
    segments = int(20_000 * scale)
    order: List[int] = []
    late: List[Tuple[int, int]] = []
    for seq in range(segments):
        while late and late[0][0] <= seq:
            order.append(late.pop(0)[1])
        if rng.random() < 0.05:
            late.append((seq + 20, seq))
        else:
            order.append(seq)
    order += [seq for _, seq in late]

    def run() -> float:
        tracker = ReceiverSackTracker()
        board = SenderScoreboard()
        start = time.perf_counter()
        for seq in order:
            tracker.receive(seq)
            board.update(tracker.rcv_nxt, tracker.blocks())
        return (time.perf_counter() - start) / len(order)

    return {"tcp.sack.update_ns": _best(run) * 1e9}


def tcp_flow(scale: float, seed: int) -> Dict[str, float]:
    """One SACK connection through a drop-tail bottleneck: host time per
    segment the sender emits (ACK clocking, loss recovery, timers)."""
    from repro.net.network import Network
    from repro.sim.engine import Simulator
    from repro.tcp.flow import TcpFlow
    from repro.units import mbps, ms

    def run() -> float:
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_link("a", "r", mbps(10.0), ms(2.0))
        net.add_link("r", "b", mbps(2.0), ms(20.0))
        net.build_routes()
        flow = TcpFlow(sim, net, "tcp-bench", "a", "b")
        flow.start(0.0)
        start = time.perf_counter()
        sim.run(until=20.0 * scale)
        return (time.perf_counter() - start) / flow.sender.packets_sent

    return {"tcp.flow.pkt_ns": _best(run) * 1e9}


# ---------------------------------------------------------------- rla
def _rla_star(n_receivers: int) -> Tuple[Any, Any, Any, List[str]]:
    """A loss-free star: every receiver on its own link off the sender,
    link rate scaled 1/n so the ACK rate at the sender is the same at
    every size and wall time isolates the per-ACK aggregate upkeep.
    (The shape of ``repro.bench``'s ``rla_scale_*`` suites, rebuilt here so
    that package stays free to be deleted.)"""
    from repro.net.droptail import DropTailQueue
    from repro.net.network import Network
    from repro.rla.config import RLAConfig
    from repro.rla.session import RLASession
    from repro.sim.engine import Simulator
    from repro.units import mbps, ms

    sim = Simulator(seed=11)
    net = Network(sim)
    members = [f"R{i}" for i in range(n_receivers)]
    source = net.add_node("S")
    for member in members:
        net.add_link("S", member, mbps(32.768 / n_receivers), ms(10.0),
                     queue_factory=lambda name: DropTailQueue(300))
        # manual routes: all-pairs shortest paths are O(n^2) on a star
        source.add_route(member, net.links[("S", member)])
        net.node(member).add_route("S", net.links[(member, "S")])
    session = RLASession(sim, net, "rla-bench", "S", members,
                         config=RLAConfig(ack_jitter=0.0))
    session.start(0.01)
    return sim, net, session, members


def rla_acks(scale: float, seed: int) -> Dict[str, float]:
    """Host time per ACK reaching the sender, at four group sizes."""
    out: Dict[str, float] = {}
    for size in RLA_SIZES:
        def run() -> float:
            sim, net, _session, members = _rla_star(size)
            start = time.perf_counter()
            sim.run(until=1.0 * scale)
            acks = sum(net.links[(m, "S")].packets_sent for m in members)
            return (time.perf_counter() - start) / acks

        out[f"rla.ack_ns.n{size}"] = _best(run) * 1e9
    return out


def rla_churn(scale: float, seed: int) -> Dict[str, float]:
    """``remove_receiver`` + ``add_receiver`` on a live 256-member session."""
    sim, _net, session, members = _rla_star(256)
    sim.run(until=0.5)
    sender = session.sender
    cycles = max(int(400 * scale), 1)

    def run() -> float:
        start = time.perf_counter()
        for i in range(cycles):
            member = members[i % len(members)]
            sender.remove_receiver(member)
            sender.add_receiver(member)
        return (time.perf_counter() - start) / cycles

    return {"rla.churn_ns": _best(run) * 1e9}


# -------------------------------------------------------------- audit
def _grid_cell(audited: bool, scale: float) -> Any:
    from repro.scenarios.grid import grid_cell

    return grid_cell("codel", "trimodal", "wide", False,
                     duration=2.0 * scale, warmup=0.5 * scale,
                     audited=audited)


def audit_overhead(scale: float, seed: int) -> Dict[str, float]:
    """The same AQM cell audited and unaudited."""
    from repro.scenarios.runner import (
        advance_scenario_world,
        build_scenario_world,
        finalize_scenario_world,
    )

    def run(audited: bool) -> Tuple[float, int]:
        start = time.perf_counter()
        world = build_scenario_world(_grid_cell(audited, scale))
        try:
            advance_scenario_world(world, world.end_time)
            finalize_scenario_world(world)
        finally:
            world.disarm()
        seconds = time.perf_counter() - start
        return seconds, sum(link.packets_sent
                            for link in world.topo.net.links.values())

    plain_s, packets = min(run(False) for _ in range(REPEATS))
    audited_s, _ = min(run(True) for _ in range(REPEATS))
    return {"audit.overhead_ratio": audited_s / plain_s,
            "audit.hook_ns": (audited_s - plain_s) / packets * 1e9}


# --------------------------------------------------------- checkpoint
def checkpoint_costs(scale: float, seed: int, scratch: Path) -> Dict[str, float]:
    """capture / save / load / restore of two mid-run worlds (the
    tree-churn scenario and fig7 case 3), and a 4-branch fork ensemble
    against 4 cold runs."""
    import dataclasses

    from repro.checkpoint import capture, load, restore, run_fork_ensemble, save
    from repro.experiments.runner import (
        TreeExperimentSpec,
        advance_tree_world,
        build_tree_world,
    )
    from repro.scenarios import get_scenario, run_scenario
    from repro.scenarios.runner import (
        SCENARIO_RESUME_ENTRYPOINT,
        advance_scenario_world,
        build_scenario_world,
    )
    from repro.topology.cases import TREE_CASES

    duration, warmup = 2.0 * scale, 1.0 * scale
    mid = warmup + duration / 2
    churn = get_scenario("tree-churn", duration=duration, warmup=warmup)
    clock = time.perf_counter
    spent = {"capture_s": 0.0, "save_s": 0.0, "load_s": 0.0, "restore_s": 0.0}
    size = 0

    tree_world = build_tree_world(TreeExperimentSpec(
        case=TREE_CASES[3], duration=duration, warmup=warmup))
    advance_tree_world(tree_world, mid)
    start = clock()
    churn_world = build_scenario_world(churn)
    advance_scenario_world(churn_world, mid)
    prefix_s = clock() - start

    for name, world, resume in (
            ("tree", tree_world, ""),
            ("churn", churn_world, SCENARIO_RESUME_ENTRYPOINT)):
        path = scratch / f"{name}.ckpt"
        marks = [clock()]
        snapshot = capture(world, label=name, resume=resume)
        marks.append(clock())
        save(snapshot, path)
        marks.append(clock())
        loaded = load(path)
        marks.append(clock())
        restore(loaded, rearm=False)
        marks.append(clock())
        for key, begin, end in zip(spent, marks, marks[1:]):
            spent[key] += end - begin
        size += len(snapshot.payload)

    start = clock()
    run_fork_ensemble(snapshot, 4)  # the churn snapshot, taken last
    fork_s = prefix_s + clock() - start
    start = clock()
    for offset in range(4):
        run_scenario(dataclasses.replace(churn, seed=churn.seed + offset))
    cold_s = clock() - start

    out = {f"checkpoint.{key}": value for key, value in spent.items()}
    out["checkpoint.bytes"] = size
    out["checkpoint.fork_ratio"] = fork_s / cold_s
    return out


# ------------------------------------------------------------ runtime
def runtime_costs(scale: float, seed: int, scratch: Path) -> Dict[str, float]:
    """Pool spawn, spec keys, and the result cache's put / get."""
    from repro.experiments.runner import TreeExperimentSpec, tree_runspec
    from repro.runtime import ResultCache, RunSpec, run_specs
    from repro.runtime.metrics import build_metrics
    from repro.topology.cases import TREE_CASES

    echo = [RunSpec("repro.runtime._testing:echo", {"events": i})
            for i in range(2)]

    def spawn() -> float:
        start = time.perf_counter()
        run_specs(echo, workers=2)
        return time.perf_counter() - start

    spec = tree_runspec(TreeExperimentSpec(case=TREE_CASES[3]))
    rounds = max(int(200 * scale), 1)

    def key() -> float:
        start = time.perf_counter()
        for _ in range(rounds):
            spec.key("0123456789abcdef")
        return (time.perf_counter() - start) / rounds

    # a sweep row is the commonest cached result
    result = {"n_receivers": 8, "rla_pps": 65.3, "wtcp_pps": 54.7,
              "ratio": 1.2, "fair": True, "lower": 0.25, "upper": 16.0,
              "sim_stats": {"events": 17392, "drops": 139,
                            "peak_queue_depth": 20, "sim_time": 2.0}}
    metrics = build_metrics("bench", 0.2, result)
    specs = [RunSpec("repro.runtime._testing:echo", {"point": i})
             for i in range(rounds)]
    cache = ResultCache(scratch / "micro-cache")

    def put() -> float:
        start = time.perf_counter()
        for item in specs:
            cache.put(item, result, metrics)
        return (time.perf_counter() - start) / rounds

    def get() -> float:
        start = time.perf_counter()
        for item in specs:
            cache.get(item)
        return (time.perf_counter() - start) / rounds

    return {"runtime.spawn_s": _best(spawn),
            "runtime.key_us": _best(key) * 1e6,
            "runtime.cache.put_us": _best(put) * 1e6,
            "runtime.cache.get_us": _best(get) * 1e6}


# -------------------------------------------------------------- fluid
def fluid_steps(scale: float, seed: int) -> Dict[str, float]:
    """One RK4 step over few cohorts (10^5-flow population point) and over
    4 and 16 bottlenecks (symmetric sweep points); one derivative call."""
    from repro.experiments.population import population_spec
    from repro.fluid.adapters import symmetric_fluid_spec
    from repro.fluid.integrate import rk4_step
    from repro.fluid.model import FluidModel

    specs = {"pop100k": population_spec(100_000)}
    for n in (4, 16):
        specs[f"sym{n}"] = symmetric_fluid_spec(
            n_receivers=n, share_pps=100.0, buffer_pkts=20, duration=10.0,
            warmup=2.0, seed=1, gateway="droptail")
    steps = max(int(300 * scale), 1)
    out: Dict[str, float] = {}
    for name, spec in specs.items():
        model = FluidModel(spec)

        def run() -> float:
            state = model.initial_state()
            start = time.perf_counter()
            for _ in range(steps):
                state = rk4_step(model, state, spec.dt)
            return (time.perf_counter() - start) / steps

        out[f"fluid.step_us.{name}"] = _best(run) * 1e6

    model = FluidModel(specs["pop100k"])
    state = model.initial_state()

    def derive() -> float:
        start = time.perf_counter()
        for _ in range(steps):
            model.derivatives(state)
        return (time.perf_counter() - start) / steps

    out["fluid.deriv_us"] = _best(derive) * 1e6
    return out


# ----------------------------------------------------------- registry
def run_all(scale: float, seed: int, scratch: Path,
            checks: Checks) -> Dict[str, float]:
    """Run every driver; a driver that raises costs one failed check."""
    drivers: List[Tuple[Callable[..., Dict[str, float]], Tuple[Any, ...]]] = [
        (sim_dispatch, ()), (sim_cancel, ()), (net_gateways, ()),
        (net_link, ()), (net_fanout, ()), (tcp_sack, ()), (tcp_flow, ()),
        (rla_acks, ()), (rla_churn, ()), (audit_overhead, ()),
        (checkpoint_costs, (scratch,)), (runtime_costs, (scratch,)),
        (fluid_steps, ()),
    ]
    values: Dict[str, float] = {}
    for driver, extra in drivers:
        try:
            values.update(driver(scale, seed, *extra))
            checks.expect(True, driver.__name__)
        except Exception as exc:  # boundary: the other drivers must still run
            checks.expect(False, f"micro-driver {driver.__name__} raised "
                                 f"{type(exc).__name__}: {exc}")
            sys.stderr.write(f"[rlabench] micro-driver {driver.__name__} "
                             f"failed: {type(exc).__name__}: {exc}\n")
    return values
