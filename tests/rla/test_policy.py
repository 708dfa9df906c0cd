"""The §4.3 slow-receiver ejection option."""

import pytest

from repro.errors import ConfigurationError
from repro.net.network import GatewayFactory, Network
from repro.rla.config import RLAConfig
from repro.rla.policy import LaggardDropPolicy
from repro.rla.session import RLASession
from repro.sim.engine import Simulator
from repro.units import ms, pps_to_bps, mbps


def test_remove_receiver_shrinks_threshold(sim, star_net):
    session = RLASession(sim, star_net, "rla-0", "S", ["R1", "R2", "R3"])
    session.start()
    sim.run(until=5.0)
    sender = session.sender
    before_reach = sender.max_reach_all
    sender.remove_receiver("R3")
    assert sender.n_receivers == 2
    assert "R3" not in sender.receivers
    assert sender.max_reach_all >= before_reach
    # session keeps making progress with the remaining receivers
    sim.run(until=15.0)
    assert sender.max_reach_all > before_reach + 100


def test_remove_unknown_receiver_is_noop(sim, star_net):
    session = RLASession(sim, star_net, "rla-0", "S", ["R1", "R2"])
    session.sender.remove_receiver("Rx")
    assert session.sender.n_receivers == 2


def test_cannot_remove_last_receiver(sim, star_net):
    session = RLASession(sim, star_net, "rla-0", "S", ["R1"])
    with pytest.raises(ConfigurationError):
        session.sender.remove_receiver("R1")
    assert session.sender.n_receivers == 1


def test_acks_from_removed_receiver_ignored(sim, star_net):
    session = RLASession(sim, star_net, "rla-0", "S", ["R1", "R2"])
    session.start()
    sim.run(until=3.0)
    session.sender.remove_receiver("R2")
    reach = session.sender.max_reach_all
    sim.run(until=6.0)
    # R2 keeps acking (it is still wired) but the sender no longer counts it
    assert "R2" not in session.sender.receivers
    assert session.sender.max_reach_all > reach


def _slow_fast_net(sim):
    """One crawling branch (20 pkt/s) next to two fast ones."""
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("S", "G", mbps(100), ms(5),
                 queue_factory=GatewayFactory("droptail", sim, 100))
    net.add_link("G", "R1", pps_to_bps(400), ms(50))
    net.add_link("G", "R2", pps_to_bps(400), ms(50))
    net.add_link("G", "Rslow", pps_to_bps(20), ms(50))
    net.build_routes()
    return net


def test_policy_drops_the_laggard():
    sim = Simulator(seed=9)
    net = _slow_fast_net(sim)
    session = RLASession(sim, net, "rla-0", "S", ["R1", "R2", "Rslow"])
    session.start()
    dropped = []
    policy = LaggardDropPolicy(sim, session.sender, check_interval=2.0,
                               patience=6.0, on_drop=dropped.append)
    policy.start()
    sim.run(until=60.0)
    assert dropped == ["Rslow"]
    assert session.sender.n_receivers == 2
    # freed from the 20 pkt/s branch, the session speeds up
    reach_at_drop = session.sender.max_reach_all
    sim.run(until=90.0)
    rate = (session.sender.max_reach_all - reach_at_drop) / 30.0
    assert rate > 100


def test_policy_does_not_drop_balanced_receivers(sim, star_net):
    session = RLASession(sim, star_net, "rla-0", "S", ["R1", "R2", "R3"])
    session.start()
    policy = LaggardDropPolicy(sim, session.sender, check_interval=2.0,
                               patience=6.0)
    policy.start()
    sim.run(until=60.0)
    assert policy.dropped == []
    assert session.sender.n_receivers == 3


def test_policy_respects_min_receivers():
    sim = Simulator(seed=9)
    net = _slow_fast_net(sim)
    session = RLASession(sim, net, "rla-0", "S", ["R1", "Rslow"])
    session.start()
    policy = LaggardDropPolicy(sim, session.sender, check_interval=2.0,
                               patience=4.0, min_receivers=2)
    policy.start()
    sim.run(until=40.0)
    assert policy.dropped == []


def test_policy_validation(sim, star_net):
    session = RLASession(sim, star_net, "rla-0", "S", ["R1"])
    with pytest.raises(ConfigurationError):
        LaggardDropPolicy(sim, session.sender, check_interval=0)
    with pytest.raises(ConfigurationError):
        LaggardDropPolicy(sim, session.sender, gap_packets=0)
    with pytest.raises(ConfigurationError):
        LaggardDropPolicy(sim, session.sender, check_interval=5.0, patience=1.0)
    with pytest.raises(ConfigurationError):
        LaggardDropPolicy(sim, session.sender, min_receivers=0)
