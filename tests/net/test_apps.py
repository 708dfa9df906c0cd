"""CBR source and packet sink."""

import pytest

from repro.errors import ConfigurationError
from repro.net.apps import CbrSource, PacketSink
from repro.net.packet import DATA
from repro.units import pps_to_bps, ms
from repro.net.network import Network
from repro.sim.engine import Simulator


def test_cbr_rate(sim, two_node_net):
    net = two_node_net
    sink = PacketSink(net.node("B"), "cbr-0")
    source = CbrSource(sim, net.node("A"), "cbr-0", "B", rate_pps=50)
    source.start()
    sim.run(until=10.0)
    # 50 pkt/s for ~10 s over a 200 pkt/s link: all delivered
    assert sink.received == pytest.approx(500, abs=2)


def test_cbr_overdrive_is_capped_by_link(sim, two_node_net):
    net = two_node_net
    sink = PacketSink(net.node("B"), "cbr-0")
    source = CbrSource(sim, net.node("A"), "cbr-0", "B", rate_pps=1000)
    source.start()
    sim.run(until=5.0)
    assert sink.received <= 200 * 5 + 21  # capacity + buffer flush


def test_cbr_stop(sim, two_node_net):
    net = two_node_net
    sink = PacketSink(net.node("B"), "cbr-0")
    source = CbrSource(sim, net.node("A"), "cbr-0", "B", rate_pps=100)
    source.start()
    sim.schedule(1.0, source.stop)
    sim.run(until=10.0)
    assert sink.received == pytest.approx(100, abs=2)


def test_cbr_set_rate(sim, two_node_net):
    net = two_node_net
    sink = PacketSink(net.node("B"), "cbr-0")
    source = CbrSource(sim, net.node("A"), "cbr-0", "B", rate_pps=10)
    source.start()
    sim.schedule(5.0, lambda: source.set_rate(100))
    sim.run(until=10.0)
    assert 50 + 450 <= sink.received <= 50 + 510


def test_cbr_rejects_bad_rate(sim, two_node_net):
    with pytest.raises(ConfigurationError):
        CbrSource(sim, two_node_net.node("A"), "x", "B", rate_pps=0)


def test_cbr_stop_start_reentrancy_single_chain(sim, two_node_net):
    """stop() then start() before the stale emit fires must not double-send.

    Regression: the stale _emit event of the first chain used to revive
    alongside the restart's chain, doubling the send rate.
    """
    net = two_node_net
    sink = PacketSink(net.node("B"), "cbr-0")
    source = CbrSource(sim, net.node("A"), "cbr-0", "B", rate_pps=10)
    source.start()
    # Stop at t=5.05 (between emissions) and restart immediately: the
    # stale event from the first chain is still scheduled for t=5.1.
    sim.schedule(5.05, source.stop)
    sim.schedule(5.06, source.start)
    sim.run(until=10.0)
    # Exactly ~10 pkt/s throughout -- a doubled chain would give ~150.
    assert sink.received == pytest.approx(100, abs=3)


def test_cbr_stop_discards_scheduled_emission(sim, two_node_net):
    """stop() discards the already-scheduled next packet (per docstring)."""
    net = two_node_net
    sink = PacketSink(net.node("B"), "cbr-0")
    source = CbrSource(sim, net.node("A"), "cbr-0", "B", rate_pps=10)
    source.start()  # emissions at t=0, 0.1, 0.2, ...
    sim.schedule(0.25, source.stop)
    sim.run(until=2.0)
    assert sink.received == 3  # t=0, 0.1, 0.2; the t=0.3 event is discarded
