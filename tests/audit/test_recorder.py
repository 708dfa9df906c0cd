"""Flight recorder: bounded ring, dump formatting, tracer compatibility."""

import pytest

from repro.audit import FlightRecorder
from repro.sim.events import Event


def test_records_oldest_first():
    recorder = FlightRecorder()
    for i in range(3):
        recorder.record(float(i), "tick", i=i)
    assert [fields["i"] for _, _, fields in recorder.records] == [0, 1, 2]
    assert len(recorder) == 3


def test_ring_evicts_oldest_but_counts_lifetime(monkeypatch):
    monkeypatch.setattr(FlightRecorder, "CAPACITY", 8)
    recorder = FlightRecorder()
    for i in range(100):
        recorder.record(float(i), "tick", i=i)
    assert len(recorder) == 8
    assert recorder.recorded == 100
    assert recorder.records[0][2]["i"] == 92


def test_dump_mentions_counts_and_fields():
    recorder = FlightRecorder()
    recorder.record(1.5, "drop", flow="tcp-0", reason="overflow")
    dump = recorder.dump()
    assert "1 record(s) shown, 1 recorded in total" in dump
    assert "drop" in dump
    assert "flow=tcp-0" in dump
    assert "reason=overflow" in dump


def test_dump_last_limits_lines():
    recorder = FlightRecorder()
    for i in range(10):
        recorder.record(float(i), "tick", i=i)
    dump = recorder.dump(last=2)
    assert "2 record(s) shown, 10 recorded in total" in dump
    assert "i=8" in dump and "i=9" in dump
    assert "i=7" not in dump


def test_observe_event_adapter():
    recorder = FlightRecorder()
    event = Event(time=3.0, seq=0, callback=lambda: None, name="link.tx")
    recorder.observe_event(event)
    time, category, fields = recorder.records[0]
    assert (time, category, fields["name"]) == (3.0, "event", "link.tx")


def test_clear():
    recorder = FlightRecorder()
    recorder.record(0.0, "tick")
    recorder.clear()
    assert len(recorder) == 0


def test_dump_last_zero_shows_none():
    # records[-0:] is the whole list: last=0 used to print everything
    recorder = FlightRecorder()
    for i in range(5):
        recorder.record(float(i), "tick", i=i)
    assert recorder.dump(last=0) == "0 record(s) shown, 5 recorded in total"


def test_dump_negative_last_rejected():
    # records[3:] for last=-3: used to drop the three *oldest* silently
    recorder = FlightRecorder()
    for i in range(5):
        recorder.record(float(i), "tick", i=i)
    with pytest.raises(ValueError):
        recorder.dump(last=-3)


def test_dump_last_beyond_retained_shows_all(monkeypatch):
    monkeypatch.setattr(FlightRecorder, "CAPACITY", 4)
    recorder = FlightRecorder()
    for i in range(10):
        recorder.record(float(i), "tick", i=i)
    assert recorder.dump(last=99) == recorder.dump()
    assert "4 record(s) shown, 10 recorded in total" in recorder.dump()


def test_records_are_snapshots_of_header_fields():
    # entries are flat (time, category, keys, values); the dict a reader
    # sees is built per read, so editing it cannot rewrite history
    recorder = FlightRecorder()
    recorder.note(1.0, "deliver", ("link", "uid"), ("A->B", 7))
    first = recorder.records
    assert first == [(1.0, "deliver", {"link": "A->B", "uid": 7})]
    first[0][2]["uid"] = 8
    assert recorder.records[0][2]["uid"] == 7
    assert "link=A->B uid=7" in recorder.dump()
