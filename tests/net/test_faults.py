"""Failure injection: the Bernoulli loss channel and end-to-end recovery."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net.droptail import DropTailQueue
from repro.net.faults import RandomDropQueue, random_drop_factory
from repro.net.network import GatewayFactory, Network
from repro.net.packet import DATA, Packet
from repro.rla.session import RLASession
from repro.sim.engine import Simulator
from repro.tcp.flow import TcpFlow
from repro.units import ms, pps_to_bps


def _pkt(seq):
    return Packet(DATA, "f", "A", "B", seq, 1000)


def test_zero_probability_never_drops():
    queue = RandomDropQueue(DropTailQueue(10), 0.0, rng=random.Random(1))
    for seq in range(10):
        assert queue.enqueue(0.0, _pkt(seq))
    assert queue.random_drops == 0


def test_drop_rate_close_to_probability():
    queue = RandomDropQueue(DropTailQueue(10_000), 0.3, rng=random.Random(2))
    offered = 5000
    accepted = sum(1 for seq in range(offered) if queue.enqueue(0.0, _pkt(seq)))
    assert queue.random_drops / offered == pytest.approx(0.3, abs=0.03)
    assert accepted + queue.random_drops == offered


def test_inner_overflow_still_applies():
    queue = RandomDropQueue(DropTailQueue(3), 0.0, rng=random.Random(3))
    for seq in range(10):
        queue.enqueue(0.0, _pkt(seq))
    assert len(queue) == 3
    assert queue.dropped == 7  # all overflow, no random


def test_dequeue_delegates():
    queue = RandomDropQueue(DropTailQueue(10), 0.0, rng=random.Random(4))
    queue.enqueue(0.0, _pkt(7))
    assert queue.dequeue(0.0).seq == 7
    assert queue.dequeue(0.0) is None


def test_observer_hooks_reach_inner_storage():
    # Storage lives in the inner gateway; enqueue/dequeue observers must
    # fire there or auditors watching the wrapper see nothing.
    queue = RandomDropQueue(DropTailQueue(10), 0.0, rng=random.Random(5))
    seen = {"enq": [], "deq": []}
    queue.on_enqueue(lambda _now, packet, _depth: seen["enq"].append(packet.seq))
    queue.on_dequeue(lambda _now, packet: seen["deq"].append(packet.seq))
    queue.enqueue(0.0, _pkt(1))
    queue.enqueue(0.0, _pkt(2))
    assert [p.seq for p in queue.contents()] == [1, 2]
    queue.dequeue(0.0)
    assert seen == {"enq": [1, 2], "deq": [1]}


def test_random_drop_fires_drop_hook_once():
    queue = RandomDropQueue(DropTailQueue(10), 0.999, rng=random.Random(6))
    reasons = []
    queue.on_drop(lambda _now, _packet, reason: reasons.append(reason))
    queue.enqueue(0.0, _pkt(0))
    assert reasons == ["random"]
    assert queue.dropped == 1


def test_validation():
    with pytest.raises(ConfigurationError):
        RandomDropQueue(DropTailQueue(10), 1.0, rng=random.Random(1))
    with pytest.raises(ConfigurationError):
        RandomDropQueue(DropTailQueue(10), -0.1, rng=random.Random(1))


def test_missing_rng_is_rejected():
    # Regression: the loss channel used to default to a private
    # random.Random(0), silently decoupled from the engine's named
    # streams — identical seeds then produced different drop patterns
    # than the documented stream derivation, and snapshot/restore could
    # not capture the hidden state.  Injection is now mandatory,
    # mirroring REDQueue.
    with pytest.raises(ConfigurationError, match="rng"):
        RandomDropQueue(DropTailQueue(10), 0.1)
    with pytest.raises(ConfigurationError, match="sim"):
        inner = GatewayFactory("droptail", Simulator(), 20)
        random_drop_factory(inner, 0.1, sim=None)("A->B")


def test_inner_red_causes_survive_the_wrapper():
    """Regression: inner drops must keep their own cause labels.

    The old wrapper re-reported every inner rejection through its own
    ``_notify_drop(..., "overflow")``: a RED forced or early drop inside
    the channel reached observers (and the audit ledger) mislabelled as
    physical overflow, and fired hooks registered on both layers twice.
    """
    from repro.net.red import REDQueue

    inner = REDQueue(capacity=100, min_th=2, max_th=4, w_q=1.0,
                     rng=random.Random(1))
    queue = RandomDropQueue(inner, 0.0, rng=random.Random(2))
    reasons = []
    queue.on_drop(lambda _now, _packet, reason: reasons.append(reason))
    for seq in range(30):
        queue.enqueue(0.0, _pkt(seq))
    assert inner.forced_drops > 0
    assert "forced" in reasons
    assert "overflow" not in reasons  # buffer never physically filled
    # exactly one hook fire per drop, with the inner cause
    assert len(reasons) == queue.dropped == inner.dropped
    assert reasons.count("forced") == inner.forced_drops
    assert reasons.count("early") == inner.early_drops


def test_wrapper_dropped_is_not_double_counted():
    """Regression: ``dropped`` must be random + inner, counted once each."""
    from repro.net.red import REDQueue

    inner = REDQueue(capacity=8, min_th=2, max_th=4, w_q=1.0,
                     rng=random.Random(3))
    queue = RandomDropQueue(inner, 0.25, rng=random.Random(4))
    offered = 400
    accepted = 0
    for seq in range(offered):
        if queue.enqueue(0.0, _pkt(seq)):
            accepted += 1
        if seq % 2 == 0:
            queue.dequeue(0.0)
    assert queue.random_drops > 0 and inner.dropped > 0
    assert queue.dropped == queue.random_drops + inner.dropped
    assert accepted + queue.dropped == offered
    assert inner.dropped == (inner.early_drops + inner.forced_drops
                             + inner.overflow_drops)


def test_per_cause_counts_match_the_auditors_ledger():
    """End-to-end attribution: queue counters == conservation ledger.

    A TCP flow pushes through a Bernoulli channel wrapped around a RED
    gateway under the ConservationAuditor; every cause counter on the
    wrapper stack must add up to exactly the drops the ledger recorded —
    no masking, no double counting.
    """
    from repro.audit import ConservationAuditor
    from repro.net.red import REDQueue

    sim = Simulator(seed=9)
    net = Network(sim)

    def red(name):
        return REDQueue(capacity=10, min_th=2, max_th=6, w_q=0.2,
                        rng=sim.rng.stream(f"red.{name}"))

    factory = random_drop_factory(red, 0.05, sim=sim)
    net.add_link("A", "B", pps_to_bps(200), ms(10), queue_factory=factory)
    net.build_routes()
    auditor = ConservationAuditor(sim)
    auditor.attach(net)
    try:
        flow = TcpFlow(sim, net, "tcp-0", "A", "B", limit=300)
        flow.start()
        sim.run(until=60.0)
        auditor.verify()
    finally:
        auditor.detach()
    queue = net.links[("A", "B")].gateway
    inner = queue.inner
    ledger = auditor.link_summary()["A->B"]
    assert ledger["dropped"] > 0
    assert ledger["dropped"] == queue.dropped
    assert queue.dropped == queue.random_drops + inner.dropped
    assert inner.dropped == (inner.early_drops + inner.forced_drops
                             + inner.overflow_drops)


def _lossy_net(sim, drop_prob):
    net = Network(sim)
    factory = random_drop_factory(GatewayFactory("droptail", sim, 20),
                                  drop_prob, sim=sim)
    net.add_link("A", "B", pps_to_bps(400), ms(20), queue_factory=factory)
    net.build_routes()
    return net


def test_tcp_transfer_completes_under_random_loss():
    sim = Simulator(seed=5)
    net = _lossy_net(sim, 0.05)
    flow = TcpFlow(sim, net, "tcp-0", "A", "B", limit=500)
    flow.start()
    sim.run(until=120.0)
    assert flow.sender.finished
    assert flow.receiver.tracker.rcv_nxt == 500
    assert flow.sender.retransmits > 0


def test_rla_stays_reliable_under_random_loss():
    sim = Simulator(seed=6)
    net = Network(sim)
    factory = random_drop_factory(GatewayFactory("droptail", sim, 20),
                                  0.05, sim=sim)
    net.add_link("S", "G", pps_to_bps(2000), ms(5),
                 queue_factory=GatewayFactory("droptail", sim, 100))
    for i in (1, 2, 3):
        net.add_link("G", f"R{i}", pps_to_bps(300), ms(40),
                     queue_factory=factory)
    net.build_routes()
    session = RLASession(sim, net, "rla-0", "S", ["R1", "R2", "R3"])
    session.start()
    sim.run(until=60.0)
    sender = session.sender
    assert sender.max_reach_all > 500
    # reliability: every receiver holds the full prefix
    for receiver in session.receivers.values():
        assert receiver.tracker.rcv_nxt >= sender.max_reach_all * 0.95
    # the repair machinery did real work
    assert sender.rtx_multicast + sender.rtx_unicast > 0
