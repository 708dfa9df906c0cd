"""Shared machinery for the rate-based multicast baselines (§1 of the paper).

The schemes the paper surveys (LTRC, MBFC) share one framework: the sender
streams packets at a controlled rate; receivers periodically report their
measured loss rate; the sender halves its rate when its congestion
criterion fires (at most once per backoff period) and otherwise increases
it linearly — the classic AIMD-on-rates loop.  Subclasses implement only
the *congestion decision* from the vector of receiver reports, which is
exactly where LTRC and MBFC differ.

Receivers detect losses from sequence-number gaps, the standard technique
for NACK-based multicast transports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import ConfigurationError
from ..net.node import Node
from ..net.packet import ACK, DATA, Packet
from ..sim.engine import Simulator
from ..sim.process import PeriodicProcess
from ..units import ACK_SIZE, DEFAULT_PACKET_SIZE


class LossReportReceiver:
    """Counts arrivals/gaps per monitor period and reports the loss rate."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow: str,
        sender_id: str,
        report_interval: float = 1.0,
        ack_size: int = ACK_SIZE,
    ) -> None:
        if report_interval <= 0:
            raise ConfigurationError(f"non-positive report interval: {report_interval}")
        self.sim = sim
        self.node = node
        self.flow = flow
        self.sender_id = sender_id
        self.ack_size = ack_size
        self.max_seq = -1
        self.received_total = 0
        self._period_received = 0
        self._period_start_seq = -1
        self._reporter = PeriodicProcess(
            sim, report_interval, self._report, name=f"{flow}.{node.id}.report"
        )
        self._reporter.start()

    def on_packet(self, packet: Packet) -> None:
        """Node-bound handler: count data arrivals."""
        if packet.kind != DATA:
            return
        self.received_total += 1
        self._period_received += 1
        if packet.seq > self.max_seq:
            self.max_seq = packet.seq

    def _report(self) -> None:
        expected = self.max_seq - self._period_start_seq
        loss_rate = 0.0
        if expected > 0:
            loss_rate = max(0.0, 1.0 - self._period_received / expected)
        report = Packet(
            ACK,
            self.flow,
            self.node.id,
            self.sender_id,
            self.max_seq,
            self.ack_size,
            sent_time=self.sim.now,
            ack=self.max_seq + 1,
            receiver=self.node.id,
        )
        # Loss rate rides in echo_ts: reports are not RTT probes here, and
        # adding a dedicated field to every packet for one baseline would
        # tax the (hot) Packet class.
        report.echo_ts = -loss_rate
        self.node.send(report)
        self._period_start_seq = self.max_seq
        self._period_received = 0


class RateBasedMulticastSender:
    """AIMD-on-rate multicast sender; subclasses supply the congestion test."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow: str,
        group: str,
        receiver_ids: Iterable[str],
        initial_rate_pps: float = 10.0,
        min_rate_pps: float = 1.0,
        max_rate_pps: float = 1e6,
        increase_pps: float = 10.0,
        adjust_interval: float = 1.0,
        backoff_period: float = 2.0,
        packet_size: int = DEFAULT_PACKET_SIZE,
    ) -> None:
        receiver_ids = list(receiver_ids)
        if not receiver_ids:
            raise ConfigurationError("rate-based session needs at least one receiver")
        if initial_rate_pps <= 0 or min_rate_pps <= 0:
            raise ConfigurationError("rates must be positive")
        self.sim = sim
        self.node = node
        self.flow = flow
        self.group = group
        self.receiver_ids = receiver_ids
        self.rate_pps = initial_rate_pps
        self.min_rate_pps = min_rate_pps
        self.max_rate_pps = max_rate_pps
        self.increase_pps = increase_pps
        self.backoff_period = backoff_period
        self.packet_size = packet_size
        self.next_seq = 0
        self.last_reduction = float("-inf")
        #: latest reported loss rate per receiver id
        self.loss_reports: Dict[str, float] = {}
        self.packets_sent = 0
        self.rate_cuts = 0
        self.rate_integral = 0.0
        self._rate_clock = sim.now
        self._adjuster = PeriodicProcess(sim, adjust_interval, self._adjust,
                                         name=f"{flow}.adjust")
        self._running = False

    # ------------------------------------------------------------------
    def start(self, offset: float = 0.0) -> None:
        """Begin streaming after ``offset`` seconds."""
        if self._running:
            return
        self._running = True
        self.sim.post(offset, self._emit, (), f"{self.flow}.cbr")
        self._adjuster.start()

    def stop(self) -> None:
        """Halt the stream and the adjustment loop."""
        self._running = False
        self._adjuster.stop()

    def on_packet(self, packet: Packet) -> None:
        """Node-bound handler: digest receiver loss reports."""
        if packet.kind == ACK and packet.receiver is not None:
            self.loss_reports[packet.receiver] = max(0.0, -packet.echo_ts)

    # ------------------------------------------------------------------
    def _emit(self) -> None:
        if not self._running:
            return
        packet = Packet(
            DATA,
            self.flow,
            self.node.id,
            self.group,
            self.next_seq,
            self.packet_size,
            sent_time=self.sim.now,
        )
        self.next_seq += 1
        self.packets_sent += 1
        self.node.send(packet)
        self.sim.post(1.0 / self.rate_pps, self._emit, (), f"{self.flow}.cbr")

    def _note_rate(self) -> None:
        now = self.sim.now
        self.rate_integral += self.rate_pps * (now - self._rate_clock)
        self._rate_clock = now

    def _set_rate(self, value: float) -> None:
        self._note_rate()
        self.rate_pps = min(max(value, self.min_rate_pps), self.max_rate_pps)

    def _adjust(self) -> None:
        congested = self.congestion_decision(self.loss_reports)
        if congested and self.sim.now - self.last_reduction >= self.backoff_period:
            self.rate_cuts += 1
            self.last_reduction = self.sim.now
            self._set_rate(self.rate_pps / 2.0)
        elif not congested:
            self._set_rate(self.rate_pps + self.increase_pps)

    # ------------------------------------------------------------------
    def congestion_decision(self, reports: Dict[str, float]) -> bool:
        """Return True when the scheme considers the session congested."""
        raise NotImplementedError

    def mean_rate(self, elapsed: float, base_integral: float = 0.0) -> float:
        """Time-average rate since a reference integral snapshot."""
        self._note_rate()
        if elapsed <= 0:
            return self.rate_pps
        return (self.rate_integral - base_integral) / elapsed
