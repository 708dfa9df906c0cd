"""The discrete-event engine: ordering, cancellation, determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.sim.engine import Simulator


def test_runs_events_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    executed = sim.run(until=2.0)
    assert executed == 1
    assert fired == [1]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run(until=10.0)
    assert fired == [1, 5]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule(0.5, lambda: None)


def test_schedule_after_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule_after(-0.1, lambda: None)


def test_schedule_at_now_runs_after_current_event():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(sim.now, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]


def test_cancelled_events_are_skipped():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    event.cancel()
    executed = sim.run()
    assert fired == ["y"]
    assert executed == 1


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    assert sim.pending() == 1


def test_max_events_guard():
    sim = Simulator()
    counter = []

    def recur():
        counter.append(1)
        sim.schedule_after(1.0, recur)

    sim.schedule(0.0, recur)
    sim.run(max_events=10)
    assert len(counter) == 10


def test_pending_and_peek():
    sim = Simulator()
    assert sim.peek() is None
    event = sim.schedule(4.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    assert sim.peek() == 2.0
    event.cancel()
    assert sim.pending() == 1


def test_events_executed_counter():
    sim = Simulator()
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_cancel_heavy_heap_stays_compact():
    # Regression: cancelled events used to linger until they surfaced at
    # the heap top, and pending() was an O(n) scan.  A long cancel-heavy
    # run (the TCP-timer pattern: schedule, cancel, reschedule) must keep
    # the physical heap near the live-event count.
    sim = Simulator()
    live = [sim.schedule(1e9, lambda: None) for _ in range(5)]
    for round_number in range(20):
        batch = [sim.schedule(1e6 + round_number, lambda: None)
                 for _ in range(1000)]
        for event in batch:
            event.cancel()
        assert sim.pending() == len(live)
    # far fewer than the 20_000 cancelled entries may remain
    assert sim.queue_size() <= len(live) + 2 * Simulator.COMPACT_MIN_CANCELLED
    assert sim.pending() == len(live)


def test_cancel_heavy_run_replays_identically():
    # Compaction must not disturb execution order (heap rebuild preserves
    # the (time, seq) ordering contract).
    def run_once():
        sim = Simulator(seed=9)
        order = []
        events = []
        for i in range(3000):
            events.append(sim.schedule(float(i % 7) + 1.0, order.append, i))
        for i, event in enumerate(events):
            if i % 3:
                event.cancel()
        sim.run()
        return order

    assert run_once() == run_once()
    assert len(run_once()) == 1000


def test_cancel_after_execution_does_not_corrupt_count():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    event.cancel()        # already executed: must be a no-op
    event.cancel()        # double-cancel: also a no-op
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


def test_peek_updates_cancelled_count():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    first.cancel()
    assert sim.peek() == 2.0
    assert sim.pending() == 1
    assert sim.queue_size() == 1


def test_reentrant_run_rejected():
    sim = Simulator()

    def inner():
        with pytest.raises(SchedulingError):
            sim.run()

    sim.schedule(1.0, inner)
    sim.run()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_property_arbitrary_times_fire_sorted(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.schedule(t, lambda t=t: seen.append(t))
    sim.run()
    assert seen == sorted(times)
    assert len(seen) == len(times)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_property_same_seed_same_stream(seed):
    a = Simulator(seed=seed).rng.stream("x")
    b = Simulator(seed=seed).rng.stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


# ----------------------------------------------------------------------
# same-timestamp ready batch (heap bypass for events scheduled at `now`)
# ----------------------------------------------------------------------
def test_ready_batch_runs_after_equal_time_heap_entries():
    # Events already queued at time T were scheduled earlier (smaller
    # seq), so immediates created while executing at T must run after
    # every one of them — FIFO-after-heap IS (time, seq) order.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(sim.now, order.append, "immediate-1")
        sim.schedule_after(0.0, order.append, "immediate-2")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "queued-tie")
    sim.schedule(2.0, order.append, "later")
    sim.run()
    assert order == ["first", "queued-tie", "immediate-1",
                     "immediate-2", "later"]


def test_ready_batch_chain_preserves_fifo():
    sim = Simulator()
    order = []

    def chain(n):
        order.append(n)
        if n < 5:
            sim.schedule_after(0.0, chain, n + 1)
            sim.schedule(sim.now, order.append, f"tail-{n}")

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert order == [0, 1, "tail-0", 2, "tail-1", 3, "tail-2",
                     4, "tail-3", 5, "tail-4"]


def test_ready_event_cancellation_honored():
    sim = Simulator()
    fired = []

    def first():
        keep = sim.schedule(sim.now, fired.append, "keep")
        drop = sim.schedule(sim.now, fired.append, "drop")
        drop.cancel()
        assert keep is not drop

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["keep"]
    assert sim.pending() == 0


def test_ready_batch_flushed_back_on_stop():
    # stop() can leave immediates behind; they must survive into the
    # next run() (via the heap) instead of being dropped.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(sim.now, order.append, "leftover")
        sim.stop()

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first"]
    assert sim.pending() == 1
    assert sim.peek() == 1.0
    sim.run()
    assert order == ["first", "leftover"]


def test_ready_batch_flushed_back_on_max_events():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        for i in range(3):
            sim.schedule(sim.now, order.append, f"im-{i}")

    sim.schedule(1.0, first)
    executed = sim.run(max_events=2)
    assert executed == 2
    assert order == ["first", "im-0"]
    assert sim.pending() == 2  # im-1, im-2 parked back in the heap
    sim.run()
    assert order == ["first", "im-0", "im-1", "im-2"]


def test_peek_sees_ready_events_from_within_callback():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(sim.now, lambda: None)
        seen.append(sim.peek())  # ready head, no heap entries at all

    sim.schedule(1.0, first)
    sim.run()
    assert seen == [1.0]


def test_schedule_at_now_outside_run_uses_heap():
    # The ready lane is only for events created *while running*; between
    # runs everything must land in the one totally ordered queue.
    sim = Simulator()
    fired = []
    sim.schedule(0.0, fired.append, "a")
    assert sim.pending() == 1
    assert sim.peek() == 0.0
    sim.run()
    assert fired == ["a"]


def test_ready_batch_replays_identically_under_compaction():
    # Cancel-heavy immediates at one timestamp: compaction may run while
    # the ready deque is populated; order and counts must be unaffected.
    def run_once():
        sim = Simulator()
        sim.COMPACT_MIN_CANCELLED = 4
        order = []

        def burst():
            events = [sim.schedule(sim.now, order.append, i)
                      for i in range(20)]
            for event in events[::2]:
                event.cancel()

        sim.schedule(1.0, burst)
        sim.run()
        return order, sim.events_executed

    assert run_once() == run_once()
    assert run_once()[0] == list(range(1, 20, 2))


# ----------------------------------------------------------------------
# cancel/peek/pending interleavings (lazy-cancellation accounting)
# ----------------------------------------------------------------------
def test_interleaved_cancel_peek_pending_accounting():
    # Regression guard for the peek()/_cancelled interaction: the seed
    # implementation popped cancelled heap entries in peek() WITHOUT
    # decrementing the lazy-cancellation counter, so a peek over
    # cancelled events made pending() under-count live events forever
    # after (and could push _cancelled above the physical queue size).
    # Interleave every operation pair and check the books at each step.
    sim = Simulator()
    events = {t: sim.schedule(float(t), lambda: None) for t in range(1, 9)}

    events[1].cancel()
    events[2].cancel()
    assert sim.pending() == 6
    assert sim.peek() == 3.0          # pops two cancelled entries
    assert sim.pending() == 6         # counter followed the pops
    assert sim.queue_size() == 6      # physically gone too

    events[4].cancel()
    assert sim.pending() == 5         # cancel after peek still counted once
    assert sim.peek() == 3.0          # head live: nothing to pop
    assert sim.pending() == 5

    # peek between cancels of the same head
    events[3].cancel()
    assert sim.peek() == 5.0
    events[5].cancel()                # note: 4 already cancelled, deeper
    assert sim.peek() == 6.0          # pops 5 and the buried 4
    assert sim.pending() == 3
    assert sim.queue_size() == 3

    executed = sim.run()
    assert executed == 3
    assert sim.pending() == 0
    assert sim.events_executed == 3


def test_peek_inside_callback_keeps_counts_with_cancelled_ready_events():
    # peek() also prunes the same-timestamp ready deque; cancelling an
    # immediate and then peeking from within the running callback must
    # keep pending() exact while the batch is still live.
    sim = Simulator()
    observed = []

    def burst():
        immediates = [sim.schedule(sim.now, observed.append, i)
                      for i in range(3)]
        immediates[0].cancel()
        observed.append(("peek", sim.peek(), sim.pending()))

    sim.schedule(1.0, burst)
    sim.schedule(2.0, observed.append, "tail")
    sim.run()
    # the cancelled immediate was pruned by peek (head of ready deque),
    # leaving 2 immediates + the 2.0 event pending at that instant
    assert observed[0] == ("peek", 1.0, 3)
    assert observed[1:] == [1, 2, "tail"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["cancel", "peek", "pending"]),
                min_size=1, max_size=60),
       st.randoms(use_true_random=False))
def test_property_cancel_peek_pending_never_drift(ops, rng):
    # Ground-truth bookkeeping: after any interleaving of cancels and
    # peeks (with compaction forced on aggressively), pending() must
    # equal the number of live events and the eventual run() must
    # execute exactly those.
    sim = Simulator()
    sim.COMPACT_MIN_CANCELLED = 2     # force frequent compactions
    live = {t: sim.schedule(float(t + 1), lambda: None)
            for t in range(30)}
    for op in ops:
        if op == "cancel" and live:
            key = rng.choice(sorted(live))
            live.pop(key).cancel()
        elif op == "peek":
            head = sim.peek()
            expected = min(live) + 1.0 if live else None
            assert head == expected
        elif op == "pending":
            assert sim.pending() == len(live)
    assert sim.pending() == len(live)
    assert sim.run() == len(live)


# ----------------------------------------------------------------------
# the handle-free form: post(delay, callback, args, name)
# ----------------------------------------------------------------------
def test_post_runs_in_seq_order_with_handle_events():
    # post takes its sequence number where schedule_after would, so the
    # two forms interleave by call order at an exact tie
    sim = Simulator()
    order = []
    sim.schedule_after(1.0, order.append, "a")
    assert sim.post(1.0, order.append, ("b",)) is None
    sim.schedule(1.0, order.append, "c")
    sim.post(0.5, order.append, ("first",), "named")
    assert sim.pending() == 4 and sim.peek() == 0.5
    assert sim.run() == 4
    assert order == ["first", "a", "b", "c"]
    assert sim.now == 1.0


def test_post_at_now_uses_the_ready_lane_and_is_flushed_on_stop():
    sim = Simulator()
    order = []

    def burst():
        sim.post(0.0, order.append, ("p1",))
        sim.schedule(sim.now, order.append, "h")
        sim.post(0.0, order.append, ("p2",))
        assert sim.peek() == 1.0 and sim.pending() == 4
        sim.stop()

    sim.schedule(1.0, burst)
    sim.schedule(1.0, order.append, "heap-tie")  # earlier seq: runs first
    assert sim.run() == 1
    # the lane went back into the heap: one totally ordered queue
    assert sim.pending() == 4 and sim.peek() == 1.0
    assert sim.run(max_events=2) == 2
    assert order == ["heap-tie", "p1"]
    sim.run()
    assert order == ["heap-tie", "p1", "h", "p2"]


def test_post_survives_compaction_and_counts():
    sim = Simulator()
    sim.COMPACT_MIN_CANCELLED = 2
    fired = []
    doomed = [sim.schedule(2.0, fired.append, ("dead", i)) for i in range(6)]
    for i in range(3):
        sim.post(1.0 + i, fired.append, (i,))
    for event in doomed:
        event.cancel()
    assert sim.queue_size() < 9  # compaction ran over both entry shapes
    assert sim.pending() == 3
    assert sim.run() == 3
    assert fired == [0, 1, 2]


def test_event_hook_sees_a_post_as_an_event():
    sim = Simulator()
    seen = []
    sim.event_hook = lambda event: seen.append(
        (event.time, event.seq, event.name, event.args, event.cancelled))
    sim.schedule_after(1.0, lambda: None, name="handle")
    sim.post(1.0, lambda *args: None, (7, 8), "posted")
    sim.post(2.0, lambda: None)
    sim.run()
    assert seen == [(1.0, 0, "handle", (), False),
                    (1.0, 1, "posted", (7, 8), False),
                    (2.0, 2, None, (), False)]


def test_post_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.post(-0.1, lambda: None)


# ----------------------------------------------------------------------
# NaN orders nowhere: it must never reach the heap or the clock
# ----------------------------------------------------------------------
@pytest.mark.parametrize("form", ["schedule", "schedule_after", "post"])
def test_nan_time_or_delay_raises(form):
    # `nan < 0` and `nan < now` are both False, so the old guards let a
    # NaN key into the heap (order undefined from then on) and `now`
    # became NaN when it popped
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SchedulingError):
        getattr(sim, form)(float("nan"), lambda: None)
    assert sim.pending() == 1
    sim.run()
    assert sim.now == 1.0


def test_run_until_nan_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SchedulingError):
        sim.run(until=float("nan"))
    assert sim.now == 0.0 and sim.pending() == 1
    sim.run()  # the refused call did not leave the engine "running"
    assert sim.now == 1.0
