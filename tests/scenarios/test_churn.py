"""Churn schedules: determinism and invariants; the driver against a session."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.rla.session import RLASession
from repro.scenarios import ChurnDriver, ChurnSpec, churn_schedule

HOSTS = [f"H{i}" for i in range(8)]


def _replay_members(initial, events):
    """Member-count trace after each event, asserting join/leave legality."""
    members = set(initial)
    counts = []
    for _t, kind, host in events:
        if kind == "join":
            assert host not in members
            members.add(host)
        else:
            assert host in members
            members.discard(host)
        counts.append(len(members))
    return counts


def test_schedule_deterministic():
    spec = ChurnSpec(arrival_rate_per_s=0.8, mean_hold_s=5.0,
                     initial_members=3, min_members=2)
    runs = [churn_schedule(spec, HOSTS, 60.0, random.Random(13))
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_schedule_invariants():
    spec = ChurnSpec(arrival_rate_per_s=1.0, mean_hold_s=4.0,
                     initial_members=3, min_members=2)
    initial, events = churn_schedule(spec, HOSTS, 80.0, random.Random(21))
    assert len(initial) == 3
    assert len(set(initial)) == 3
    times = [t for t, _k, _h in events]
    assert times == sorted(times)
    assert all(0.0 <= t < 80.0 for t in times)
    counts = _replay_members(initial, events)
    assert all(count >= spec.min_members for count in counts)
    assert any(kind == "join" for _t, kind, _h in events)
    assert any(kind == "leave" for _t, kind, _h in events)


def test_pareto_holds_also_respect_floor():
    spec = ChurnSpec(arrival_rate_per_s=1.0, mean_hold_s=3.0,
                     hold_dist="pareto", initial_members=2, min_members=2)
    initial, events = churn_schedule(spec, HOSTS, 60.0, random.Random(5))
    counts = _replay_members(initial, events)
    assert all(count >= 2 for count in counts)


def test_no_arrivals_keeps_initial_members():
    spec = ChurnSpec(arrival_rate_per_s=0.0, mean_hold_s=2.0,
                     initial_members=3, min_members=3)
    initial, events = churn_schedule(spec, HOSTS, 30.0, random.Random(1))
    # holds expire but the floor equals the population: nobody may leave
    assert events == []
    assert len(initial) == 3


def test_needs_enough_hosts():
    spec = ChurnSpec(initial_members=4, min_members=1)
    with pytest.raises(ConfigurationError):
        churn_schedule(spec, ["H0", "H1"], 10.0, random.Random(1))


@pytest.mark.parametrize("bad", [
    ChurnSpec(arrival_rate_per_s=-1.0),
    ChurnSpec(mean_hold_s=0.0),
    ChurnSpec(hold_dist="uniform"),
    ChurnSpec(initial_members=0),
    ChurnSpec(initial_members=2, min_members=3),
    ChurnSpec(min_members=0),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ConfigurationError):
        bad.validate()


def test_driver_applies_events_to_live_session(sim, star_net):
    session = RLASession(sim, star_net, "rla-0", "S", ["R1", "R2"])
    session.start()
    driver = ChurnDriver(sim, session, [
        (2.0, "join", "R3"),
        (5.0, "leave", "R1"),
    ])
    driver.start()
    sim.run(until=10.0)
    assert driver.applied == [(2.0, "join", "R3"), (5.0, "leave", "R1")]
    assert sorted(session.receivers) == ["R2", "R3"]
    assert session.joins == 1 and session.leaves == 1
