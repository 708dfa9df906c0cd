"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import sys

import pytest

from repro.net.link import Link
from repro.net.network import GatewayFactory, Network
from repro.net.packet import DATA
from repro.sim.engine import Simulator
from repro.units import ms, pps_to_bps


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture
def count_python_calls():
    """``count(run) -> (result, calls, transmissions)`` for the call budgets.

    Wall-clock tests are useless on a shared box, but the number of Python
    function calls a seeded run makes is exact: ``calls`` is every Python
    frame entered while ``run()`` executes (C calls are "c_call" events and
    not counted), ``transmissions`` how many of them were a ``Link``
    starting a serialisation.
    """
    def count(run):
        calls = transmissions = 0
        transmit = Link._transmit.__code__

        def profiler(frame, event, _arg):
            nonlocal calls, transmissions
            if event == "call":
                calls += 1
                if frame.f_code is transmit:
                    transmissions += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            result = run()
        finally:
            sys.setprofile(previous)
        return result, calls, transmissions

    return count


@pytest.fixture
def jittered_emissions(monkeypatch):
    """``watch(sim, node) -> check(bound)``: §3.1's one jitter queue.

    ``watch`` records each ``{flow}.jit`` event ``sim`` queues (the instant
    a sender decided to send a DATA packet) and each DATA packet ``node``
    sends.  ``check(bound)`` asserts that every DATA packet sent, first
    send or repair, waited in that queue: it left strictly after its
    decision and at most ``bound`` after it.  Returns the packets sent.
    """
    def watch(sim, node):
        decided, sent = [], []
        post, send = sim.post, node.send

        def recording_post(delay, callback, args=(), name=None):
            if name is not None and name.endswith(".jit"):
                # args are (seq, ..., is_rtx) on either sender
                decided.append((sim.now, args[0], args[-1]))
            post(delay, callback, args, name)

        def recording_send(packet):
            if packet.kind == DATA:
                sent.append((sim.now, packet))
            send(packet)

        monkeypatch.setattr(sim, "post", recording_post)
        monkeypatch.setattr(node, "send", recording_send)

        def check(bound):
            pending = list(decided)
            for time, packet in sent:
                key = (packet.seq, packet.is_retransmit)
                match = next((d for d in pending if d[1:] == key
                              and d[0] < time <= d[0] + bound), None)
                assert match is not None, (
                    f"DATA {key} sent at {time} without a decision in "
                    f"({time - bound}, {time})")
                pending.remove(match)
            return [packet for _, packet in sent]

        return check

    return watch


@pytest.fixture
def two_node_net(sim):
    """A <-> B with a 200 pkt/s bottleneck and 50 ms one-way delay."""
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("A", "B", pps_to_bps(200), ms(50))
    net.build_routes()
    return net


@pytest.fixture
def star_net(sim):
    """S - G - {R1, R2, R3}: fat access link, 200 pkt/s branches."""
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("S", "G", pps_to_bps(20_000), ms(5),
                 queue_factory=GatewayFactory("droptail", sim, 200))
    for i in (1, 2, 3):
        net.add_link("G", f"R{i}", pps_to_bps(200), ms(50))
    net.build_routes()
    return net
