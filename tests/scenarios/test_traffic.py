"""Background traffic: Pareto draws, on/off sources, web mice."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net.apps import PacketSink
from repro.net.network import Network, droptail_factory
from repro.scenarios import (
    BackgroundTraffic,
    ParetoOnOffSource,
    WebMiceWorkload,
    pareto_draw,
    place_traffic,
)
from repro.sim.engine import Simulator
from repro.units import ms, pps_to_bps


def _line_net(sim, hosts=3, rate_pps=2000):
    net = Network(sim, default_queue=droptail_factory(50))
    for i in range(hosts):
        net.add_link("S", f"H{i}", pps_to_bps(rate_pps), ms(5))
    net.build_routes()
    return net


# ----------------------------------------------------------------------
# Pareto draws
# ----------------------------------------------------------------------
def test_pareto_draw_mean_and_floor():
    rng = random.Random(1)
    alpha, mean = 2.5, 1.0
    draws = [pareto_draw(rng, mean, alpha) for _ in range(20000)]
    xm = mean * (alpha - 1.0) / alpha
    assert all(d >= xm for d in draws)
    assert sum(draws) / len(draws) == pytest.approx(mean, rel=0.1)


def test_pareto_draw_rejects_bad_params():
    rng = random.Random(1)
    with pytest.raises(ConfigurationError):
        pareto_draw(rng, 1.0, 1.0)  # alpha must be > 1
    with pytest.raises(ConfigurationError):
        pareto_draw(rng, 0.0, 2.0)


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [
    BackgroundTraffic(tcp_flows=-1),
    BackgroundTraffic(mice_rate_per_s=-0.5),
    BackgroundTraffic(pareto_sources=1, pareto_rate_pps=0.0),
    BackgroundTraffic(pareto_sources=1, pareto_off_s=0.0),
    BackgroundTraffic(mice_rate_per_s=1.0, mice_mean_pkts=0),
    BackgroundTraffic(mice_rate_per_s=1.0, mice_mean_pkts=501),
])
def test_invalid_traffic_rejected(bad):
    with pytest.raises(ConfigurationError):
        bad.validate()


# ----------------------------------------------------------------------
# Pareto on/off source
# ----------------------------------------------------------------------
def test_onoff_source_bursts_and_pauses():
    sim = Simulator(seed=3)
    net = _line_net(sim, hosts=1)
    pump = ParetoOnOffSource(sim, net, "p0", "S", "H0", rate_pps=100,
                             mean_on_s=0.5, mean_off_s=0.5, alpha=1.5,
                             rng=random.Random(7))
    pump.start()
    sim.run(until=20.0)
    assert pump.bursts > 1                      # it toggled
    assert 0 < pump.sink.received < 100 * 20    # off periods bit into the rate


def test_onoff_source_deterministic():
    counts = []
    for _ in range(2):
        sim = Simulator(seed=3)
        net = _line_net(sim, hosts=1)
        pump = ParetoOnOffSource(sim, net, "p0", "S", "H0", rate_pps=100,
                                 mean_on_s=0.5, mean_off_s=0.5, alpha=1.5,
                                 rng=random.Random(7))
        pump.start()
        sim.run(until=10.0)
        counts.append((pump.bursts, pump.sink.received))
    assert counts[0] == counts[1]


# ----------------------------------------------------------------------
# web mice
# ----------------------------------------------------------------------
def test_mice_arrive_transfer_and_finish():
    sim = Simulator(seed=5)
    net = _line_net(sim, hosts=3)
    mice = WebMiceWorkload(sim, net, ["H0", "H1", "H2"], "S",
                           rate_per_s=2.0, mean_pkts=10, alpha=1.5,
                           max_pkts=50, rng=random.Random(9), stop_at=15.0)
    mice.start()
    sim.run(until=30.0)
    stats = mice.stats()
    assert stats["mice_started"] > 5
    assert stats["mice_finished"] == stats["mice_started"]  # all short, all done
    assert stats["mice_pkts_sent"] >= stats["mice_started"]
    # arrivals stop at the horizon
    assert all(m.sender.limit <= 50 for m in mice.mice)


def test_mice_respect_stop_at():
    sim = Simulator(seed=5)
    net = _line_net(sim, hosts=2)
    mice = WebMiceWorkload(sim, net, ["H0", "H1"], "S",
                           rate_per_s=5.0, mean_pkts=5, alpha=1.5,
                           max_pkts=20, rng=random.Random(2), stop_at=3.0)
    mice.start()
    sim.run(until=3.0)
    started_at_horizon = len(mice.mice)
    sim.run(until=10.0)
    assert len(mice.mice) == started_at_horizon


def test_mice_need_hosts():
    sim = Simulator(seed=1)
    net = _line_net(sim, hosts=1)
    with pytest.raises(ConfigurationError):
        WebMiceWorkload(sim, net, [], "S", rate_per_s=1.0, mean_pkts=5,
                        alpha=1.5, max_pkts=10, rng=random.Random(1),
                        stop_at=5.0)


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def test_place_traffic_instantiates_the_mix():
    sim = Simulator(seed=4)
    net = _line_net(sim, hosts=4)
    spec = BackgroundTraffic(tcp_flows=2, pareto_sources=1,
                             mice_rate_per_s=1.0)
    placed = place_traffic(sim, net, spec, ["H0", "H1", "H2", "H3"], "S",
                           duration=10.0, rng=random.Random(11))
    assert len(placed.tcp_flows) == 2
    assert len(placed.pareto_sources) == 1
    assert placed.mice is not None
    # long-lived flows land on distinct hosts
    dsts = [dst for _flow, dst in placed.tcp_placements]
    assert len(set(dsts)) == len(dsts)
    sim.run(until=10.0)
    assert all(f.receiver.stats()["distinct_received"] > 0
               for f in placed.tcp_flows)


def test_place_traffic_needs_hosts():
    sim = Simulator(seed=4)
    net = _line_net(sim, hosts=1)
    with pytest.raises(ConfigurationError):
        place_traffic(sim, net, BackgroundTraffic(), [], "S",
                      duration=5.0, rng=random.Random(1))
