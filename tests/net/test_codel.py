"""CoDel gateway: sojourn control law, eviction accounting, determinism."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.codel import CoDelQueue
from repro.net.packet import DATA, Packet


def _pkt(seq, ect=False):
    packet = Packet(DATA, "f", "A", "B", seq, 1000)
    packet.ect = ect
    return packet


def _fill(queue, count, now=0.0):
    for seq in range(count):
        queue.enqueue(now, _pkt(seq))


def test_validation():
    with pytest.raises(ValueError):
        CoDelQueue(target=0.0)
    with pytest.raises(ValueError):
        CoDelQueue(interval=-1.0)


def test_short_sojourn_is_plain_fifo():
    queue = CoDelQueue(capacity=20)
    _fill(queue, 5)
    out = [queue.dequeue(0.001 * (k + 1)).seq for k in range(5)]
    assert out == [0, 1, 2, 3, 4]
    assert queue.sojourn_drops == 0
    assert queue.evicted == 0


def test_needs_a_full_interval_above_target_before_dropping():
    queue = CoDelQueue(capacity=20, target=0.005, interval=0.1)
    _fill(queue, 10)
    # Sojourn is already way above target, but the first bad dequeue only
    # starts the interval clock.
    assert queue.dequeue(0.05) is not None
    assert queue.sojourn_drops == 0
    # Still inside the interval window: delivered, not dropped.
    assert queue.dequeue(0.1) is not None
    assert queue.sojourn_drops == 0
    # A whole interval has elapsed above target: the head is evicted and
    # the next packet delivered in its place.
    delivered = queue.dequeue(0.2)
    assert delivered is not None
    assert queue.sojourn_drops == 1
    assert queue.evicted == 1


def test_drop_spacing_follows_inverse_sqrt_count():
    queue = CoDelQueue(capacity=1000, target=0.005, interval=0.1)
    _fill(queue, 900)
    evictions = []
    t = 0.15
    last = 0
    while queue.dequeue(t) is not None and t < 10.0:
        if queue.sojourn_drops > last:
            evictions.append(t)
            last = queue.sojourn_drops
        t += 0.01
    assert len(evictions) >= 4
    gaps = [b - a for a, b in zip(evictions, evictions[1:])]
    # interval / sqrt(count) shrinks: later gaps must not grow
    assert gaps[0] >= gaps[-1]
    assert gaps[-1] < queue.interval


def test_single_queued_packet_is_never_dropped():
    queue = CoDelQueue(capacity=20, target=0.005, interval=0.1)
    queue.enqueue(0.0, _pkt(0))
    # Ancient sojourn, but it is the only packet: always delivered.
    assert queue.dequeue(99.0).seq == 0
    assert queue.sojourn_drops == 0


def test_eviction_accounting_and_hook_reason():
    queue = CoDelQueue(capacity=50, target=0.005, interval=0.1)
    reasons = []
    queue.on_drop(lambda _now, _packet, reason: reasons.append(reason))
    _fill(queue, 40)
    t = 0.15
    delivered = 0
    while queue.dequeue(t) is not None:
        delivered += 1
        t += 0.02
    assert queue.sojourn_drops > 0
    assert set(reasons) == {"sojourn"}
    assert queue.dropped == queue.evicted == queue.sojourn_drops
    # occupancy conservation with dequeue-time discards
    assert queue.enqueued - queue.dequeued - queue.evicted == len(queue) == 0
    assert queue.dequeued == delivered


def test_overflow_still_counts_at_enqueue():
    queue = CoDelQueue(capacity=3)
    _fill(queue, 10)
    assert queue.enqueued == 3
    assert queue.dropped == 7
    assert queue.evicted == 0


def test_ecn_mode_marks_instead_of_evicting():
    queue = CoDelQueue(capacity=50, target=0.005, interval=0.1, mark_ecn=True)
    for seq in range(40):
        queue.enqueue(0.0, _pkt(seq, ect=True))
    t = 0.15
    marked = 0
    while True:
        packet = queue.dequeue(t)
        if packet is None:
            break
        marked += packet.ce
        t += 0.02
    assert queue.ecn_marks == marked > 0
    assert queue.evicted == 0
    assert queue.dequeued == 40  # every packet delivered, some marked


def test_control_law_is_deterministic():
    def run():
        queue = CoDelQueue(capacity=100, target=0.005, interval=0.1)
        trace = []
        for seq in range(80):
            queue.enqueue(seq * 0.001, _pkt(seq))
        t = 0.2
        while True:
            packet = queue.dequeue(t)
            if packet is None:
                break
            trace.append((packet.seq, queue.sojourn_drops, queue._count))
            t += 0.013
        return trace

    assert run() == run()


#: a standing queue: the control law drops (or marks) from ~30 ms on
_STANDING = [(6, 0.001)] * 40 + [(0, 0.01)] * 10 + [(3, 0.02)] * 10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 6), st.floats(0.0005, 0.04)),
                min_size=1, max_size=60),
       st.booleans())
@example(_STANDING, False)
@example(_STANDING, True)
def test_empty_dequeue_changes_nothing(schedule, mark_ecn):
    """The one-event link no longer asks an empty gateway for a packet.

    CoDel's empty-queue branch resets ``_first_above_time`` and
    ``_dropping``; both are already reset by the dequeue that emptied the
    queue (``_should_drop`` sees the empty queue after the pop), and the
    next dequeue of a packet that arrived to an idle link (sojourn 0)
    would reset them again.  So a queue asked at every service
    opportunity, empty or not, as the two-event link did, and one asked
    only when it holds a packet take the same decisions and end in the
    same state.
    """
    asked, spared = (CoDelQueue(capacity=8, target=0.005, interval=0.03,
                                mark_ecn=mark_ecn) for _ in range(2))
    served = {asked: [], spared: []}
    now = 0.0
    for arrivals, gap in schedule:  # a burst, then one service opportunity
        for _ in range(arrivals):
            packet = _pkt(0, ect=True)
            asked.enqueue(now, packet)
            spared.enqueue(now, packet.copy())
        now += gap
        for queue in (asked, spared):
            if queue is asked or len(queue):
                head = queue.dequeue(now)
                if head is not None:
                    served[queue].append(head.ce)
    assert served[asked] == served[spared]
    assert (asked.evicted, asked.ecn_marks) == (spared.evicted, spared.ecn_marks)
    state = ("_first_above_time", "_drop_next", "_count", "_lastcount",
             "_dropping")
    assert ([getattr(asked, key) for key in state]
            == [getattr(spared, key) for key in state])
    if schedule is _STANDING:
        assert asked.ecn_marks if mark_ecn else asked.evicted
