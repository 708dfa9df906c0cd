"""The one-event ``Link`` against the two-event link it replaced.

``repro.net.link.Link`` posts a packet's downstream arrival when its
serialisation starts and wakes the transmitter only for a waiting packet;
``tests/sim/reference.py`` keeps the two-event link (a "transmission done"
event per packet, then the arrival).  Both compute every instant as the
same float sums, so they may differ only in how *exactly simultaneous*
events are ordered (docs/SIMULATOR.md, "Links and queues").  On drawn
inputs free of such ties -- distinct, non-dyadic bandwidths and delays --
every packet must reach the same node at the same instant, and every drop
must happen at the same instant for the same cause, behind drop-tail,
RED, CoDel and a ``RandomDropQueue`` wrapper alike.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from repro.net.codel import CoDelQueue
from repro.net.droptail import DropTailQueue
from repro.net.faults import RandomDropQueue
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import DATA, Packet, restore_uid_counter, uid_counter_state
from repro.net.red import REDQueue
from repro.sim.engine import Simulator


def _load_reference():
    # the engine oracle loads the same file under the same private name
    if "sim_reference" in sys.modules:
        return sys.modules["sim_reference"]
    spec = importlib.util.spec_from_file_location(
        "sim_reference", Path(__file__).parent.parent / "sim" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


reference = _load_reference()

#: (src, dst) of every link: two sources into G1, a shared G1 -> G2
#: bottleneck, and a three-way fan-out to the receivers
LINKS = [("S1", "G1"), ("S2", "G1"), ("G1", "G2"),
         ("G2", "R1"), ("G2", "R2"), ("G2", "R3")]
RECEIVERS = ("R1", "R2", "R3")
GROUP = "group:g"
#: a distinct prime per link: sqrt(prime) factors keep every bandwidth and
#: delay non-dyadic and unrelated to the others
_PRIMES = (2, 3, 5, 7, 11, 13)


def _gateway(kind, capacity, wrapped, seed):
    if kind == "droptail":
        gateway = DropTailQueue(capacity)
    elif kind == "red":
        gateway = REDQueue(capacity, min_th=1.0, max_th=capacity - 0.5,
                           w_q=0.25, max_p=0.3, rng=random.Random(seed))
    else:
        gateway = CoDelQueue(capacity, target=0.002, interval=0.02)
    if wrapped:
        gateway = RandomDropQueue(gateway, 0.1,
                                  rng=random.Random(seed + 1000))
    return gateway


def _run(link_class, links, packets):
    """Drive one network; return its arrivals, drops and final counters."""
    restore_uid_counter(1)
    sim = Simulator(seed=1)
    times = []
    sim.event_hook = lambda event: times.append(event.time)
    nodes = {name: Node(name) for pair in LINKS for name in pair}
    arrivals, drops = [], []
    built = {}
    for i, ((src, dst), (kind, capacity, wrapped, bw, delay)) in enumerate(
            zip(LINKS, links)):
        link = link_class(sim, f"{src}->{dst}", nodes[src], nodes[dst], bw,
                          delay, _gateway(kind, capacity, wrapped, i))
        link.on_deliver(lambda now, packet, dst=dst:
                        arrivals.append((now, dst, packet.uid)))
        link.gateway.on_drop(lambda now, packet, reason, name=link.name:
                             drops.append((now, name, packet.uid, reason)))
        built[src, dst] = link
    for source in ("S1", "S2"):
        for receiver in RECEIVERS:
            nodes[source].add_route(receiver, built[source, "G1"])
        nodes[source].add_mcast_route(GROUP, built[source, "G1"])
    for receiver in RECEIVERS:
        nodes["G1"].add_route(receiver, built["G1", "G2"])
        nodes["G2"].add_route(receiver, built["G2", receiver])
        nodes["G2"].add_mcast_route(GROUP, built["G2", receiver])
    nodes["G1"].add_mcast_route(GROUP, built["G1", "G2"])
    for receiver in RECEIVERS:
        nodes[receiver].join(GROUP)
    for at, source, dst, size in packets:
        sim.schedule(at, nodes[source].send,
                     Packet(DATA, "f", source, dst, 0, size))
    sim.run()
    counters = [(link.packets_sent, link.bytes_sent, link.gateway.enqueued,
                 link.gateway.dequeued, link.gateway.dropped,
                 link.gateway.evicted) for link in built.values()]
    return times, arrivals, drops, counters


_LINK = st.tuples(
    st.sampled_from(["droptail", "red", "codel"]),
    st.integers(2, 6),                       # buffer, packets
    st.booleans(),                           # behind a RandomDropQueue
    st.floats(0.3, 3.0),                     # bandwidth, Mb/s before sqrt(p)
    st.floats(0.1, 5.0),                     # delay, ms before sqrt(p)
)
_PACKET = st.tuples(
    st.floats(0.0, 0.2, exclude_min=True),   # injection instant, s
    st.sampled_from(["S1", "S2"]),
    st.sampled_from(RECEIVERS + (GROUP,)),
    st.sampled_from([40, 576, 1000, 1500]),  # bytes
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_LINK, min_size=len(LINKS), max_size=len(LINKS)),
       st.lists(_PACKET, min_size=1, max_size=80))
def test_fused_link_delivers_and_drops_like_the_two_event_link(
        drawn_links, packets):
    links = [(kind, capacity, wrapped,
              mbps * 1e6 * math.sqrt(prime), ms * 1e-3 * math.sqrt(prime + 17))
             for (kind, capacity, wrapped, mbps, ms), prime
             in zip(drawn_links, _PRIMES)]
    before = uid_counter_state()
    try:
        old_times, *old = _run(reference.Link, links, packets)
        # tie-free inputs only: no two events of the two-event run share
        # an instant, so neither link's tie rule is exercised
        assume(len(set(old_times)) == len(old_times))
        new_times, *new = _run(Link, links, packets)
    finally:
        restore_uid_counter(max(before, uid_counter_state()))
    arrivals, drops, counters = new
    assert (arrivals, drops, counters) == tuple(old)
    assert len(new_times) < len(old_times) or not arrivals


def test_the_draws_reach_drops_of_every_cause():
    """The property above is not vacuous: a fixed busy draw drops by
    overflow, RED's early/forced law, CoDel's sojourn law and the
    wrapper's coin, and the fused link still matches."""
    links = [("red", 6, True, 2.5e6 * math.sqrt(2), 1e-3 * math.sqrt(19)),
             ("droptail", 3, False, 2.2e6 * math.sqrt(3), 1e-3 * math.sqrt(20)),
             ("codel", 6, False, 0.4e6 * math.sqrt(5), 1e-3 * math.sqrt(22)),
             ("red", 4, False, 0.9e6 * math.sqrt(7), 1e-3 * math.sqrt(24)),
             ("droptail", 2, True, 0.8e6 * math.sqrt(11), 1e-3 * math.sqrt(28)),
             ("codel", 3, False, 0.7e6 * math.sqrt(13), 1e-3 * math.sqrt(30))]
    rng = random.Random(5)
    packets = [(rng.uniform(0.0, 0.2), rng.choice(["S1", "S2"]),
                rng.choice(RECEIVERS + (GROUP,)),
                rng.choice([40, 576, 1000, 1500])) for _ in range(300)]
    before = uid_counter_state()
    try:
        old_times, *old = _run(reference.Link, links, packets)
        new_times, *new = _run(Link, links, packets)
    finally:
        restore_uid_counter(max(before, uid_counter_state()))
    assert len(set(old_times)) == len(old_times)
    assert new == old
    causes = {reason for _, _, _, reason in new[1]}
    assert causes >= {"overflow", "random", "sojourn"}
    assert causes & {"early", "forced"}
    assert len(new_times) < len(old_times)
