"""Timers and periodic processes."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess, Timer


def test_timer_fires_once():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]
    assert not timer.pending


def test_timer_restart_resets_countdown():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.schedule(1.0, lambda: timer.start(2.0))  # restart at t=1
    sim.run()
    assert fired == [3.0]


def test_timer_stop_cancels():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    timer.stop()
    sim.run()
    assert fired == []
    assert timer.expiry is None


def test_timer_restart_later_moves_its_one_queue_entry():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    event = timer._event
    sim.run(until=0.5)
    timer.start(1.0)  # due at 1.5; the entry still says 1.0
    assert timer._event is event and timer.expiry == 1.5
    assert sim.queue_size() == sim.pending() == 1
    assert [entry[0] for entry in sim._queue] == [1.0]
    assert sim.run(until=1.2) == 0  # the entry surfaced, nothing ran
    assert sim.now == 1.2 and fired == []
    assert [entry[0] for entry in sim._queue] == [1.5]
    sim.run()
    assert fired == [1.5] and sim.events_executed == 1


def test_timer_restart_at_the_same_instant_takes_a_fresh_sequence_number():
    sim = Simulator()
    order = []
    timer = Timer(sim, lambda: order.append("timer"))
    timer.start(1.0)
    sim.schedule(1.0, order.append, "scheduled")
    timer.start(1.0)  # same instant, re-keyed behind the scheduled event
    assert sim.queue_size() == 2
    sim.run()
    assert order == ["scheduled", "timer"]


def test_timer_restart_earlier_than_its_entry_cancels_and_reschedules():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    first = timer._event
    timer.start(1.0)
    assert first.cancelled and timer._event is not first
    assert sim.pending() == 1 and sim.queue_size() == 2
    sim.run()
    assert fired == [1.0]


def test_timer_restart_to_now_inside_a_callback_re_keys():
    sim = Simulator()
    order = []
    timer = Timer(sim, lambda: order.append(("timer", sim.now)))

    def restart():
        sim.post(0.0, order.append, (("post", sim.now),))
        handle = timer._event
        timer.start(0.0)  # its entry is due now: re-keyed behind the post
        assert timer._event is handle
        assert sim.queue_size() == sim.pending()

    sim.schedule(0.5, restart)
    timer.start(0.5)
    sim.run()
    assert order == [("post", 0.5), ("timer", 0.5)]


def test_timer_stop_after_a_restart_drops_its_entry():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.start(3.0)
    timer.stop()
    assert sim.pending() == 0 and sim.peek() is None
    assert sim.run() == 0 and fired == []


def test_peek_files_a_restarted_entry_at_its_true_time():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    sim.schedule(2.0, lambda: None)
    timer.start(3.0)
    assert sim.peek() == 2.0
    assert sorted(entry[0] for entry in sim._queue) == [2.0, 3.0]


def test_timer_expiry_reports_absolute_time():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.5)
    assert timer.expiry == pytest.approx(1.5)


def test_periodic_ticks_at_interval():
    sim = Simulator()
    ticks = []
    process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
    process.start()
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]


def test_periodic_start_offset():
    sim = Simulator()
    ticks = []
    process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now),
                              start_offset=0.25)
    process.start()
    sim.run(until=2.5)
    assert ticks == [0.25, 1.25, 2.25]


def test_periodic_stop():
    sim = Simulator()
    ticks = []
    process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
    process.start()
    sim.schedule(2.5, process.stop)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]
    assert not process.running


def test_periodic_double_start_is_noop():
    sim = Simulator()
    ticks = []
    process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
    process.start()
    process.start()
    sim.run(until=1.5)
    assert ticks == [1.0]


def test_periodic_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        PeriodicProcess(sim, 0.0, lambda: None)


def test_periodic_stop_from_inside_its_own_callback():
    # _tick used to re-arm unconditionally after the callback, so a
    # process that stopped itself kept ticking with running == True
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) == 3:
            proc.stop()

    proc = PeriodicProcess(sim, 1.0, tick)
    proc.start()
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]
    assert not proc.running
    assert sim.pending() == 0


def test_periodic_restart_from_inside_its_own_callback_keeps_one_chain():
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) == 2:
            proc.stop()
            proc.start()

    proc = PeriodicProcess(sim, 1.0, tick)
    proc.start()
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert proc.running and sim.pending() == 1


def test_timer_is_disarmed_before_its_callback_runs():
    # Timer clears its handle before firing, so the callback may stop or
    # re-arm it; pinned because PeriodicProcess got this wrong
    sim = Simulator()
    fired = []

    def fire():
        fired.append((sim.now, timer.pending))
        timer.stop()  # no-op: nothing armed, nothing cancelled
        if len(fired) == 1:
            timer.start(1.5)

    timer = Timer(sim, fire)
    timer.start(2.0)
    sim.run()
    assert fired == [(2.0, False), (3.5, False)]
    assert not timer.pending and sim.pending() == 0
