"""Queue monitors: drop accounting and occupancy statistics."""

import pytest

from repro.net.droptail import DropTailQueue
from repro.net.monitor import QueueMonitor
from repro.net.packet import DATA, Packet
from repro.sim.engine import Simulator


def _pkt(seq, flow="f"):
    return Packet(DATA, flow, "A", "B", seq, 1000)


def test_counts_drops_per_flow():
    sim = Simulator()
    queue = DropTailQueue(2)
    monitor = QueueMonitor(sim, queue)
    queue.enqueue(0.0, _pkt(0, "a"))
    queue.enqueue(0.0, _pkt(1, "b"))
    queue.enqueue(0.0, _pkt(2, "a"))  # dropped
    assert monitor.drops_by_flow["a"] == 1
    assert monitor.total_drops == 1


def test_loss_rate():
    sim = Simulator()
    queue = DropTailQueue(2)
    monitor = QueueMonitor(sim, queue)
    for seq in range(4):
        queue.enqueue(0.0, _pkt(seq))
    assert monitor.loss_rate() == pytest.approx(0.5)


def test_mean_depth_time_weighted():
    sim = Simulator()
    queue = DropTailQueue(10)
    monitor = QueueMonitor(sim, queue)
    queue.enqueue(0.0, _pkt(0))  # depth 1 from t=0
    sim.schedule(10.0, lambda: queue.enqueue(sim.now, _pkt(1)))
    sim.run()
    monitor.finish()
    # depth was 1 for 10 s then 2 for 0 s
    assert monitor.mean_depth() == pytest.approx(1.0, rel=0.01)
    assert monitor.max_depth == 2


def test_stats_are_fresh_without_finish():
    # Regression: mean_depth()/max_depth used to return whatever the last
    # *observation* left behind, so reading them without an explicit
    # finish() reported stale values (here: 1.0 instead of 0.5).
    sim = Simulator()
    queue = DropTailQueue(10)
    monitor = QueueMonitor(sim, queue)
    queue.enqueue(0.0, _pkt(0))                          # depth 1 at t=0
    sim.schedule(5.0, lambda: queue.dequeue(sim.now))    # depth 0 at t=5
    sim.schedule(10.0, lambda: None)                     # idle until t=10
    sim.run()
    assert monitor.mean_depth() == pytest.approx(0.5)    # (1*5 + 0*5) / 10
    assert monitor.max_depth == 1


def test_dequeues_are_observed():
    # The monitor must fold depth *decreases* into the time-weighted mean,
    # not just enqueues and drops.
    sim = Simulator()
    queue = DropTailQueue(10)
    monitor = QueueMonitor(sim, queue)
    queue.enqueue(0.0, _pkt(0))
    queue.enqueue(0.0, _pkt(1))                          # depth 2 at t=0
    sim.schedule(2.0, lambda: queue.dequeue(sim.now))    # depth 1 at t=2
    sim.schedule(4.0, lambda: queue.dequeue(sim.now))    # depth 0 at t=4
    sim.schedule(8.0, lambda: None)
    sim.run()
    # (2*2 + 1*2 + 0*4) / 8
    assert monitor.mean_depth() == pytest.approx(0.75)


def test_depth_samples_off_by_default():
    # aggregates only: nothing the monitor holds grows with the packet count
    sim = Simulator()
    queue = DropTailQueue(2)
    monitor = QueueMonitor(sim, queue)
    for seq in range(50):
        queue.enqueue(0.0, _pkt(seq))
    assert monitor.total_drops == 48
    assert not any(isinstance(value, list) for value in vars(monitor).values())
