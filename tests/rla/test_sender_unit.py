"""RLA sender mechanics, driven by hand-crafted ACKs (no network)."""

import pytest

from repro.errors import ConfigurationError
from repro.net.node import Node
from repro.net.packet import ACK, DATA, Packet
from repro.rla.config import RLAConfig
from repro.rla.sender import RLASender
from repro.sim.engine import Simulator


class _StubNode(Node):
    """Node that captures outbound packets instead of routing them."""

    def __init__(self):
        super().__init__("S")
        self.outbox = []

    def send(self, packet):
        self.outbox.append(packet)


def _sender(sim, n=3, **config_kwargs):
    node = _StubNode()
    config = RLAConfig(ack_jitter=0.0, **config_kwargs)
    sender = RLASender(sim, node, "rla-0", "group:rla-0",
                       [f"R{i}" for i in range(1, n + 1)], config=config)
    return sender, node


def _ack(receiver, ack, sack=None, echo=0.0):
    return Packet(ACK, "rla-0", receiver, "S", ack, 40, ack=ack, sack=sack,
                  receiver=receiver, echo_ts=echo)


def test_needs_receivers():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        RLASender(sim, _StubNode(), "rla-0", "group:x", [])


def test_initial_window_sends_one_packet():
    sim = Simulator()
    sender, node = _sender(sim)
    sender.start()
    sim.run(until=0.5)
    data = [p for p in node.outbox if p.kind == DATA]
    assert [p.seq for p in data] == [0]
    assert data[0].dst == "group:rla-0"


def test_window_grows_only_on_full_ack():
    sim = Simulator()
    sender, node = _sender(sim, n=3)
    sender.start()
    sim.run(until=0.5)
    sender.on_packet(_ack("R1", 1))
    sender.on_packet(_ack("R2", 1))
    assert sender.cwnd == 1.0            # two of three acked: no growth
    assert sender.max_reach_all == -1
    sender.on_packet(_ack("R3", 1))
    assert sender.cwnd == 2.0            # slow start
    assert sender.max_reach_all == 0


def test_duplicate_acks_do_not_grow_twice():
    sim = Simulator()
    sender, node = _sender(sim, n=2)
    sender.start()
    sim.run(until=0.5)
    for _ in range(3):
        sender.on_packet(_ack("R1", 1))
    sender.on_packet(_ack("R2", 1))
    assert sender.cwnd == 2.0


def test_min_last_ack_tracks_laggard():
    sim = Simulator()
    sender, node = _sender(sim, n=3)
    sender.start()
    sim.run(until=0.5)
    sender.on_packet(_ack("R1", 5))
    sender.on_packet(_ack("R2", 3))
    assert sender.min_last_ack == 0
    sender.on_packet(_ack("R3", 2))
    assert sender.min_last_ack == 2


def test_congestion_signal_triggers_possible_cut():
    sim = Simulator()
    sender, node = _sender(sim, n=1)
    sender.start()
    sim.run(until=0.5)
    # grow the window a little
    for seq in range(1, 6):
        sender.on_packet(_ack("R1", seq))
    before = sender.cwnd
    # R1 sacks far ahead, leaving a hole at its cumulative point
    sender.on_packet(_ack("R1", 5, sack=((9, 12),)))
    assert sender.congestion_signals == 1
    # n = 1 troubled receiver -> pthresh = 1 -> certain cut.  With a single
    # receiver the three sacked packets are also acked-by-all, so the
    # window first grows by 3 (slow start), then halves.
    assert sender.window_cuts == 1
    assert sender.cwnd == pytest.approx((before + 3) / 2)


def test_losses_within_two_srtt_grouped():
    sim = Simulator()
    sender, node = _sender(sim, n=1)
    sender.start()
    sim.run(until=0.5)
    for seq in range(1, 8):
        sender.on_packet(_ack("R1", seq, echo=max(sim.now - 0.1, 0)))
    sender.on_packet(_ack("R1", 7, sack=((11, 12),)))   # loss of 7..8 zone
    first_cuts = sender.window_cuts
    # another loss right away: same congestion period, no second signal
    sender.on_packet(_ack("R1", 7, sack=((11, 13),)))
    assert sender.congestion_signals == 1
    assert sender.window_cuts == first_cuts


def test_forced_cut_after_long_quiet(monkeypatch):
    monkeypatch.setattr(RLAConfig, "forced_cut_awnd_rtts", 0.001)
    sim = Simulator()
    sender, node = _sender(sim, n=2)
    sender.start()
    sim.run(until=0.5)
    for seq in range(1, 5):
        sender.on_packet(_ack("R1", seq))
        sender.on_packet(_ack("R2", seq))
    sim.run(until=10.0)
    sender.on_packet(_ack("R1", 4, sack=((8, 9),)))
    assert sender.forced_cuts == 1


def test_forced_cut_disabled(monkeypatch):
    monkeypatch.setattr(RLAConfig, "forced_cut_awnd_rtts", 0.001)
    sim = Simulator()
    sender, node = _sender(sim, n=2, forced_cut_enabled=False)
    sender.start()
    sim.run(until=0.5)
    for seq in range(1, 5):
        sender.on_packet(_ack("R1", seq))
        sender.on_packet(_ack("R2", seq))
    sim.run(until=10.0)
    sender.on_packet(_ack("R1", 4, sack=((8, 9),)))
    assert sender.forced_cuts == 0


def test_window_bounded_by_receiver_buffer(monkeypatch):
    monkeypatch.setattr(RLAConfig, "rcv_buffer", 4)
    sim = Simulator()
    sender, node = _sender(sim, n=2)
    sender.cwnd = 100.0
    sender.start()
    sim.run(until=0.5)
    data = [p for p in node.outbox if p.kind == DATA]
    assert len(data) == 4  # min_last_ack (0) + rcv_buffer


#: §3.1's jitter bound for the retransmit cases: one service time at
#: 200 pkt/s.
PHASE_JITTER = 0.005


def _check_jitter(check, phase_jitter, sender):
    """With jitter on, every DATA packet, repairs included, left through
    the jitter queue."""
    if phase_jitter is not None:
        sent = check(phase_jitter)
        assert len(sent) == sender.packets_sent
        assert any(p.is_retransmit for p in sent)


@pytest.mark.parametrize("phase_jitter", [None, PHASE_JITTER],
                         ids=["no-jitter", "jitter"])
def test_retransmit_multicast_above_threshold(phase_jitter, jittered_emissions):
    sim = Simulator()
    # rexmit_thresh 0, as in §5
    sender, node = _sender(sim, n=3, phase_jitter=phase_jitter)
    check = jittered_emissions(sim, node)
    sender.cwnd = 20.0
    sender.start()
    sim.run(until=0.5)
    # every receiver sacks around seq 2 -> all request retransmission
    for rid in ("R1", "R2", "R3"):
        sender.on_packet(_ack(rid, 2, sack=((6, 9),)))
    sim.run(until=2.0)  # let the rtx wait timer fire
    rtx = [p for p in node.outbox if p.is_retransmit]
    assert sender.rtx_multicast >= 1
    assert any(p.dst == "group:rla-0" for p in rtx)
    _check_jitter(check, phase_jitter, sender)


@pytest.mark.parametrize("phase_jitter", [None, PHASE_JITTER],
                         ids=["no-jitter", "jitter"])
def test_retransmit_unicast_below_threshold(phase_jitter, jittered_emissions,
                                            monkeypatch):
    monkeypatch.setattr(RLAConfig, "rexmit_thresh", 2)
    sim = Simulator()
    sender, node = _sender(sim, n=3, phase_jitter=phase_jitter)
    check = jittered_emissions(sim, node)
    sender.cwnd = 20.0
    sender.start()
    sim.run(until=0.5)
    # only R1 misses seq 2
    sender.on_packet(_ack("R1", 2, sack=((6, 9),)))
    sender.on_packet(_ack("R2", 9))
    sender.on_packet(_ack("R3", 9))
    sim.run(until=2.0)
    rtx = [p for p in node.outbox if p.is_retransmit]
    assert sender.rtx_unicast >= 1
    assert rtx[0].dst == "R1"
    _check_jitter(check, phase_jitter, sender)


def test_rtt_scaled_pthresh_discounts_near_receiver():
    sim = Simulator()
    # forced-cut disabled: with a 50 ms srtt the forced-cut deadline
    # (2 * awnd * srtt ~ 0.1 s) would fire before the randomized check.
    sender, node = _sender(sim, n=2, rtt_scaled_pthresh=True,
                           forced_cut_enabled=False)
    near, far = sender.receivers["R1"], sender.receivers["R2"]
    near.rtt.update(0.05)
    far.rtt.update(0.5)
    # scale for the near receiver: (0.05/0.5)^2 = 0.01 -> pthresh tiny
    listen_draws = []
    sender._listen_rng.random = lambda: listen_draws.append(1) or 0.02
    sender.start()
    sim.run(until=0.5)
    for seq in range(1, 5):
        sender.on_packet(_ack("R1", seq))
        sender.on_packet(_ack("R2", seq))
    cuts_before = sender.window_cuts
    sender.on_packet(_ack("R1", 4, sack=((8, 9),)))
    # draw 0.02 > pthresh = 0.01/num_trouble -> ignored
    assert sender.window_cuts == cuts_before


def test_stats_contains_per_receiver_signals():
    sim = Simulator()
    sender, _ = _sender(sim, n=2)
    sender.start()
    sim.run(until=0.5)
    stats = sender.stats()
    assert set(stats["signals_by_receiver"]) == {"R1", "R2"}
