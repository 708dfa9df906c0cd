"""TCP sender unit behaviour on a two-node network."""

import pytest

from repro.net.packet import ACK, DATA, Packet
from repro.tcp.config import TcpConfig
from repro.tcp.flow import TcpFlow
from repro.errors import ConfigurationError


def _drain(sim, until):
    sim.run(until=until)


def test_slow_start_doubles_window(sim, two_node_net, monkeypatch):
    monkeypatch.setattr(TcpConfig, "initial_ssthresh", 1e9)
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    # RTT ~= 0.105s; after a few RTTs in pure slow start cwnd ~ 2^k
    sim.run(until=0.12)
    w1 = flow.sender.cwnd
    sim.run(until=0.24)
    w2 = flow.sender.cwnd
    assert w2 >= 2 * w1 * 0.9


def test_congestion_avoidance_linear(sim, two_node_net, monkeypatch):
    monkeypatch.setattr(TcpConfig, "initial_cwnd", 4.0)
    monkeypatch.setattr(TcpConfig, "initial_ssthresh", 4.0)
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    sim.run(until=0.15)  # one RTT past start
    w1 = flow.sender.cwnd
    sim.run(until=0.26)
    w2 = flow.sender.cwnd
    # roughly +1 per RTT in congestion avoidance
    assert 0.5 <= w2 - w1 <= 2.0


def test_halves_once_per_congestion_event(sim, two_node_net):
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    sim.run(until=60.0)
    sender = flow.sender
    # bottleneck forces repeated cuts but no timeouts on a clean path
    assert sender.window_cuts > 3
    assert sender.timeouts == 0


def test_cwnd_respects_max(sim, two_node_net):
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B",
                   config=TcpConfig(max_cwnd=8.0))
    flow.start()
    sim.run(until=20.0)
    assert flow.sender.cwnd <= 8.0


def test_finite_transfer_completes(sim, two_node_net):
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B", limit=300)
    flow.start()
    sim.run(until=60.0)
    assert flow.sender.finished
    assert flow.receiver.tracker.rcv_nxt == 300


@pytest.mark.parametrize("phase_jitter", [None, 0.005],
                         ids=["no-jitter", "jitter"])
def test_retransmissions_recover_losses(phase_jitter, sim, two_node_net,
                                        jittered_emissions):
    # Overdrive: cwnd repeatedly overshoots the 20-packet buffer.  The
    # jitter bound is §3.1's: one service time of the 200 pkt/s link.
    check = jittered_emissions(sim, two_node_net.node("A"))
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B", limit=2000,
                   config=TcpConfig(phase_jitter=phase_jitter))
    flow.start()
    sim.run(until=120.0)
    assert flow.sender.finished
    assert flow.sender.retransmits > 0
    assert flow.receiver.tracker.rcv_nxt == 2000
    if phase_jitter is not None:
        # every DATA packet, repairs included, left through the jitter queue
        sent = check(phase_jitter)
        assert len(sent) == flow.sender.packets_sent
        assert sum(p.is_retransmit for p in sent) == flow.sender.retransmits


def test_pipe_counts_inflight(sim, two_node_net):
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    sim.run(until=0.01)
    assert flow.sender.pipe == 1  # initial window of one packet in flight
    sim.run(until=30.0)
    assert flow.sender.pipe <= flow.sender.cwnd + 1


def test_stats_snapshot_keys(sim, two_node_net):
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    sim.run(until=5.0)
    stats = flow.sender.stats()
    for key in ("packets_sent", "window_cuts", "cwnd_integral", "rtt_samples"):
        assert key in stats


def test_invalid_config_rejected():
    for kwargs in ({"max_cwnd": 0.5}, {"max_cwnd": float("nan")},
                   {"max_cwnd": float("inf")}, {"phase_jitter": -1},
                   {"phase_jitter": float("nan")},
                   {"phase_jitter": float("inf")}, {"packet_size": 0}):
        with pytest.raises(ConfigurationError):
            TcpConfig(**kwargs).validate()


def test_rtt_estimate_matches_path(sim, two_node_net):
    flow = TcpFlow(sim, two_node_net, "tcp-0", "A", "B")
    flow.start()
    sim.run(until=10.0)
    # propagation 2*50ms + serialization; queueing adds more
    assert 0.1 < flow.sender.rtt.srtt < 0.3
