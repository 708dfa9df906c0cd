"""RED gateway: threshold behaviour, average tracking, drop accounting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import DATA, Packet
from repro.net.red import REDQueue


def _pkt(seq):
    return Packet(DATA, "f", "A", "B", seq, 1000)


def _fill(queue, count, now=0.0):
    accepted = 0
    for seq in range(count):
        if queue.enqueue(now, _pkt(seq)):
            accepted += 1
    return accepted


def test_no_drops_below_min_threshold():
    queue = REDQueue(capacity=20, min_th=5, max_th=15, rng=random.Random(1))
    # With w_q = 0.002 the average stays near zero for a short burst of 4.
    assert _fill(queue, 4) == 4
    assert queue.dropped == 0


def test_forced_drops_when_average_beyond_max():
    queue = REDQueue(capacity=100, min_th=2, max_th=4, w_q=1.0,
                     rng=random.Random(1))
    # w_q = 1 makes the average track the instantaneous queue exactly.
    _fill(queue, 30)
    assert queue.forced_drops > 0
    # once avg >= max_th every arrival is dropped
    depth = len(queue)
    assert not queue.enqueue(0.0, _pkt(99))
    assert len(queue) == depth


def test_overflow_drops_when_buffer_full():
    queue = REDQueue(capacity=5, min_th=100, max_th=200, rng=random.Random(1))
    # thresholds high: only physical overflow can drop
    _fill(queue, 10)
    assert queue.overflow_drops == 5
    assert queue.early_drops == 0


def test_early_drop_probability_increases_with_average():
    rng = random.Random(7)
    queue = REDQueue(capacity=1000, min_th=5, max_th=15, w_q=1.0, max_p=0.1,
                     rng=rng)
    _fill(queue, 400)
    assert queue.early_drops > 0


def test_average_ages_during_idle():
    queue = REDQueue(capacity=20, min_th=5, max_th=15, w_q=1.0,
                     rng=random.Random(1))
    queue.mean_pkt_time = 0.005
    _fill(queue, 10)
    while queue.dequeue(1.0) is not None:
        pass
    avg_before = queue.avg
    queue.enqueue(10.0, _pkt(50))  # 9 seconds idle -> 1800 packet times
    assert queue.avg < avg_before * 0.01


def test_count_resets_below_min():
    queue = REDQueue(capacity=20, min_th=5, max_th=15, w_q=1.0,
                     rng=random.Random(1))
    _fill(queue, 3)
    assert queue.count == -1


def test_parameter_validation():
    with pytest.raises(ValueError):
        REDQueue(min_th=10, max_th=5, rng=random.Random(1))
    with pytest.raises(ValueError):
        REDQueue(w_q=0.0, rng=random.Random(1))
    with pytest.raises(ValueError):
        REDQueue(max_p=1.5, rng=random.Random(1))


def test_rng_injection_is_required():
    # Regression: the old default rng=random.Random(0) silently bypassed
    # the simulator's seeded streams, so directly constructed RED
    # gateways broke same-seed replay.
    with pytest.raises(ValueError, match="rng"):
        REDQueue(capacity=20)


def test_same_stream_seed_same_drop_sequence():
    def drop_pattern(seed):
        queue = REDQueue(capacity=20, min_th=2, max_th=8, w_q=1.0,
                         max_p=0.5, rng=random.Random(seed))
        pattern = []
        for seq in range(200):
            pattern.append(queue.enqueue(0.0, _pkt(seq)))
            if seq % 3 == 0:
                queue.dequeue(0.0)
        return pattern

    assert drop_pattern(11) == drop_pattern(11)
    assert drop_pattern(11) != drop_pattern(12)


def test_red_network_same_seed_replays_identically():
    # End-to-end: a RED-gatewayed run is fully pinned by the master seed
    # (all drop draws flow through sim.rng streams via GatewayFactory).
    from repro.experiments.sweeps import run_symmetric_spec, symmetric_point

    params = dict(n_receivers=2, share_pps=100.0, buffer_pkts=20,
                  duration=6.0, warmup=3.0, seed=5, gateway="red")
    first = run_symmetric_spec(symmetric_point(**params))
    second = run_symmetric_spec(symmetric_point(**params))
    assert first == second
    assert first["sim_stats"]["drops"] > 0  # RED actually dropped
    different = run_symmetric_spec(symmetric_point(**dict(params, seed=6)))
    assert different != first


def test_idle_aging_survives_empty_queue_drop():
    """Regression: a drop at an *empty* queue must not cancel idle aging.

    The old enqueue cleared ``_idle_since`` before the accept/drop
    decision, so once an inflated average force-dropped an arrival at an
    idle gateway, the idle clock was gone: the average never decayed and
    the empty queue kept dropping forever.  After the fix the clock is
    only cleared on accept, so a later arrival after a long idle gap
    sees a fully aged average and must be accepted.
    """
    queue = REDQueue(capacity=20, min_th=2, max_th=4, w_q=0.5,
                     rng=random.Random(1))
    queue.mean_pkt_time = 0.005
    _fill(queue, 20)                       # drive avg above max_th
    while queue.dequeue(1.0) is not None:  # drain; avg stays inflated
        pass
    assert queue.avg >= queue.max_th
    # Arrival just after the drain: ~0.2 packet-times of aging cannot
    # bring avg below max_th, so this is a forced drop at an empty queue.
    assert not queue.enqueue(1.001, _pkt(50))
    assert len(queue) == 0
    # 9 seconds (~1800 packet-times) later the average must have aged
    # away.  Under the pre-fix code this arrival was force-dropped too.
    assert queue.enqueue(10.0, _pkt(51))
    assert queue.avg < queue.min_th


def test_idle_aging_does_not_double_decay_repeated_drops():
    """Back-to-back drops at an empty queue age avg over disjoint gaps."""
    queue = REDQueue(capacity=20, min_th=2, max_th=400, w_q=0.5,
                     rng=random.Random(1))
    queue.mean_pkt_time = 1.0
    queue.avg = 100.0
    queue._idle_since = 0.0
    queue.capacity = 0  # force overflow drops while staying empty-queued
    queue.enqueue(1.0, _pkt(0))   # ages over [0, 1]: one packet-time
    queue.enqueue(3.0, _pkt(1))   # must age over [1, 3], not [0, 3]
    # one then two packet-times of decay: 100 * 0.5 * 0.5**2
    assert queue.avg == pytest.approx(12.5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), arrivals=st.integers(1, 200))
def test_property_accounting_conserved(seed, arrivals):
    """accepted + dropped == offered, and depth never exceeds capacity."""
    queue = REDQueue(capacity=20, rng=random.Random(seed))
    accepted = _fill(queue, arrivals)
    assert accepted + queue.dropped == arrivals
    assert len(queue) <= queue.capacity
    assert queue.dropped == (queue.early_drops + queue.forced_drops
                             + queue.overflow_drops)
