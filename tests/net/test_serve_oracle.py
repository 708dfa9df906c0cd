"""``Gateway.serve`` against ``enqueue`` + ``dequeue`` on a twin gateway.

A ``Link`` whose wire is idle hands an arriving packet to its gateway's
``serve`` and transmits what comes back.  Drop-tail and RED decide that
verdict without touching their deque when it is empty and no enqueue or
dequeue hook watches it; every other discipline keeps the base
``enqueue`` then ``dequeue``.  Either way nothing observable may differ
from the round trip: two twin gateways (same parameters, same RNG state)
live through the same drawn history of arrivals and departures, one
taking ``serve`` where the other takes ``enqueue`` + ``dequeue``, and must
agree on every returned packet, every counter and attribute (RED's
``avg``, ``count`` and ``_idle_since`` among them), every hook call with
its drop cause, and every ECN mark.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.codel import CoDelQueue
from repro.net.droptail import DropTailQueue
from repro.net.faults import RandomDropQueue
from repro.net.packet import DATA, Packet
from repro.net.pie import PIEQueue
from repro.net.queue import Gateway
from repro.net.red import AdaptiveREDQueue, REDQueue

#: Tight thresholds and a fast average, so short histories reach RED's
#: early, forced and overflow regions and its idle aging.
_RED = dict(capacity=6, min_th=1.0, max_th=3.0, w_q=0.25, max_p=0.5)

DISCIPLINES = {
    "droptail": lambda rng: DropTailQueue(4),
    "red": lambda rng: REDQueue(rng=rng, **_RED),
    "red-ecn": lambda rng: REDQueue(rng=rng, mark_ecn=True, **_RED),
    "red-byte": lambda rng: REDQueue(
        rng=rng, capacity=6, min_th=1000.0, max_th=3000.0, w_q=0.25,
        max_p=0.5, byte_mode=True, mark_ecn=True),
    "red-adaptive": lambda rng: AdaptiveREDQueue(
        rng=rng, adapt_interval=0.01, **_RED),
    "codel": lambda rng: CoDelQueue(4, target=0.002, interval=0.01),
    "pie": lambda rng: PIEQueue(4, target=0.002, t_update=0.005, rng=rng),
    "randomdrop": lambda rng: RandomDropQueue(
        REDQueue(rng=random.Random(rng.random()), **_RED), 0.2, rng=rng),
}

#: ``queue``: an arrival while the wire is busy (``enqueue`` on both);
#: ``offer``: the wire is idle (``serve`` against the round trip, on an
#: empty gateway as a Link does, or on a non-empty one); ``depart``.
_KINDS = ["queue", "queue", "offer", "offer", "depart", "depart"]
_OPS = st.lists(st.tuples(
    st.sampled_from(_KINDS),
    st.sampled_from([0.0, 0.0, 0.001, 0.004, 0.02, 0.1]),
    st.sampled_from([500, 1000, 1500]),
    st.booleans(),
), max_size=80)


def _key(packet):
    return None if packet is None else (
        packet.flow, packet.seq, packet.size, packet.ect, packet.ce)


def _state(gateway):
    """Every attribute of ``gateway``, with packets and RNGs made comparable."""
    out = {}
    for name, value in vars(gateway).items():
        if name.endswith("_hooks"):
            continue
        if isinstance(value, random.Random):
            value = value.getstate()
        elif isinstance(value, Gateway):
            value = _state(value)
        elif isinstance(value, deque):
            value = [_key(item) if isinstance(item, Packet) else item
                     for item in value]
        out[name] = value
    return out


class _Twin:
    """One gateway plus the log of everything its hooks saw."""

    def __init__(self, name, seed, hooked):
        self.gateway = DISCIPLINES[name](random.Random(seed))
        self.gateway.mean_pkt_time = 0.004  # what a Link sets at attach
        self.log = []
        self.gateway.on_drop(
            lambda now, packet, reason: self.log.append(
                ("drop", now, _key(packet), reason)))
        if hooked:
            self.gateway.on_enqueue(
                lambda now, packet, depth: self.log.append(
                    ("enqueue", now, _key(packet), depth)))
            self.gateway.on_dequeue(
                lambda now, packet: self.log.append(
                    ("dequeue", now, _key(packet))))


def _round_trip(gateway, now, packet):
    if gateway.enqueue(now, packet):
        return gateway.dequeue(now)
    return None


def _play(name, ops, seed, hooked):
    served = _Twin(name, seed, hooked)
    tripped = _Twin(name, seed, hooked)
    a, b = served.gateway, tripped.gateway
    now = 0.0
    fast = 0
    for number, (kind, step, size, ect) in enumerate(ops):
        now += step
        if kind == "depart":
            results = _key(a.dequeue(now)), _key(b.dequeue(now))
        else:
            twins = []
            for _ in range(2):
                packet = Packet(DATA, "f", "s", "d", number, size)
                packet.ect = ect
                twins.append(packet)
            if kind == "offer":
                fast += not len(a)
                results = (_key(a.serve(now, twins[0])),
                           _key(_round_trip(b, now, twins[1])))
            else:
                results = a.enqueue(now, twins[0]), b.enqueue(now, twins[1])
            assert _key(twins[0]) == _key(twins[1]), (number, "ECN mark")
        assert results[0] == results[1], (number, kind)
        assert _state(a) == _state(b), (number, kind)
        assert served.log == tripped.log, (number, kind)
    return served, fast


@pytest.mark.parametrize("hooked", [False, True], ids=["bare", "hooked"])
@pytest.mark.parametrize("name", DISCIPLINES)
@settings(max_examples=60, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 2**16))
def test_serve_is_enqueue_then_dequeue(name, hooked, ops, seed):
    _play(name, ops, seed, hooked)


@pytest.mark.parametrize("name", DISCIPLINES)
def test_a_long_history_reaches_every_verdict(name):
    """The property's draws are short; one long seeded history per
    discipline shows the comparison really crosses drops and marks."""
    rng = random.Random(7)
    ops = [(rng.choice(_KINDS),
            rng.choice([0.0, 0.0, 0.001, 0.004, 0.02, 0.1]),
            rng.choice([500, 1000, 1500]), rng.random() < 0.5)
           for _ in range(3000)]
    served, fast = _play(name, ops, 11, hooked=False)
    assert fast > 100
    causes = {entry[3] for entry in served.log}
    expected = {
        "droptail": {"overflow"}, "codel": {"sojourn"},
        "pie": {"early"}, "randomdrop": {"random"},
    }.get(name, {"forced"})
    assert expected <= causes, causes
    if name in ("red-ecn", "red-byte"):
        assert served.gateway.ecn_marks > 0


def test_an_unwatched_empty_fifo_never_touches_its_deque(monkeypatch):
    def refuse(*args):
        raise AssertionError("the idle-wire verdict used the deque")

    for gateway in (DropTailQueue(4), REDQueue(rng=random.Random(1))):
        monkeypatch.setattr(gateway, "_accept", refuse)
        packet = Packet(DATA, "f", "s", "d", 0, 1000)
        assert gateway.serve(0.5, packet) is packet
        assert (gateway.enqueued, gateway.dequeued, gateway.peak_depth,
                gateway.bytes_queued, len(gateway)) == (1, 1, 1, 0, 0)
