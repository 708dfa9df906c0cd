"""Event handles: cancellation flags and repr."""

from repro.sim.events import Event


def _noop():
    pass


def test_cancel_sets_flags():
    event = Event(1.0, 0, _noop)
    assert event.active
    event.cancel()
    assert event.cancelled
    assert not event.active


def test_repr_mentions_state():
    event = Event(1.5, 3, _noop, name="probe")
    assert "probe" in repr(event)
    assert "pending" in repr(event)
    event.cancel()
    assert "cancelled" in repr(event)
