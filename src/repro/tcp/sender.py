"""The TCP SACK sender.

Implements the congestion-control skeleton of §4.1 of the paper over the
SACK machinery of :mod:`repro.tcp.sack`:

* slow start (``cwnd += 1`` per new ACK below ``ssthresh``),
* congestion avoidance (``cwnd += k / cwnd`` for ``k`` newly acked),
* one window halving per congestion event (fast-recovery style: further
  losses inside the same recovery window do not halve again),
* timeout: ``ssthresh = cwnd / 2``, ``cwnd = 1``, exponential RTO backoff,
* SACK-driven retransmission with a conservation-of-packets pipe estimate.

The sender is greedy by default (infinite backlog), matching the paper's
"the sender has infinite data to send" assumption; ``limit`` makes it stop
after a fixed number of segments for file-transfer style tests.

:class:`WindowSender` is what it shares with the RLA sender: the window
state, the counters and the one §3.1 emission path of every DATA packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Set, Union

from ..net.node import Node
from ..net.packet import ACK, DATA, Packet
from ..sim.engine import Simulator
from ..sim.process import Timer
from ..units import DEFAULT_PACKET_SIZE, transmission_time
from .config import TcpConfig
from .rto import RttEstimator
from .sack import SenderScoreboard

if TYPE_CHECKING:
    from ..rla.config import RLAConfig


def phase_jitter(gateway: str, bottleneck_bps: float) -> Optional[float]:
    """§3.1's bound on a data sender's random processing time.

    ``None`` on RED, whose random drops break phase effects by themselves;
    otherwise one ``DEFAULT_PACKET_SIZE`` service time of the bottleneck.
    """
    if gateway == "red":
        return None
    return transmission_time(DEFAULT_PACKET_SIZE, bottleneck_bps)


class WindowSender:
    """The TCP and RLA senders' shared core: window, counters, §3.1 device.

    Every DATA packet, first send or repair, leaves through :meth:`_emit`
    (a ``U(0, phase_jitter)`` delay from the ``{flow}.jitter`` stream) and
    is built by :meth:`_emit_now`.  Subclasses supply ``_kick``.
    """

    def __init__(self, sim: Simulator, node: Node, flow: str,
                 config: Union[TcpConfig, RLAConfig]) -> None:
        self.sim = sim
        self.node = node
        self.flow = flow
        self.config = config.validate()
        self.cwnd: float = config.initial_cwnd
        self.ssthresh: float = config.initial_ssthresh
        self.snd_nxt = 0
        self._jitter_rng = sim.rng.stream(f"{flow}.jitter")
        self._started = False
        #: Optional audit hook: audited runs point this at an
        #: ``InvariantMonitor`` and every processed ACK is sanity-checked.
        self.monitor = None

        # lifetime statistics (experiments snapshot-diff these)
        self.packets_sent = 0
        self.window_cuts = 0
        self.timeouts = 0
        self.cwnd_integral = 0.0
        self._cwnd_clock = sim.now

    def start(self, offset: float = 0.0) -> None:
        """Begin transmitting after ``offset`` seconds."""
        if self._started:
            return
        self._started = True
        self.sim.post(offset, self._kick, (), f"{self.flow}.start")

    def _note_cwnd(self) -> None:
        """Accumulate the time-weighted cwnd integral up to now."""
        now = self.sim.now
        self.cwnd_integral += self.cwnd * (now - self._cwnd_clock)
        self._cwnd_clock = now

    def _set_cwnd(self, value: float) -> None:
        self._note_cwnd()
        self.cwnd = min(max(value, 1.0), self.config.max_cwnd)

    def _emit(self, seq: int, dst: str, is_rtx: bool) -> None:
        """Send DATA ``seq`` to ``dst`` after §3.1's random processing time.

        Window accounting happened at decision time, so a jittered
        emission is already "in flight" while it waits.
        """
        jitter = self.config.phase_jitter
        if jitter:
            delay = self._jitter_rng.uniform(0.0, jitter)
            self.sim.post(delay, self._emit_now, (seq, dst, is_rtx),
                          f"{self.flow}.jit")
        else:
            self._emit_now(seq, dst, is_rtx)

    def _emit_now(self, seq: int, dst: str, is_rtx: bool) -> None:
        packet = Packet(DATA, self.flow, self.node.id, dst, seq,
                        self.config.packet_size, sent_time=self.sim.now,
                        is_retransmit=is_rtx)
        packet.ect = self.config.ecn
        self.packets_sent += 1
        self.node.send(packet)


class TcpSender(WindowSender):
    """One direction of a TCP SACK connection (data out, ACKs in)."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow: str,
        dst: str,
        config: Optional[TcpConfig] = None,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(sim, node, flow, config or TcpConfig())
        self.dst = dst
        self.limit = limit
        self.scoreboard = SenderScoreboard(self.config.dupack_threshold)
        self.rtt = RttEstimator(self.config.min_rto, self.config.max_rto)
        self._rto_timer = Timer(sim, self._on_timeout, name=f"{flow}.rto")
        self._in_recovery = False
        self._recover = -1
        self._lost: Set[int] = set()          # declared lost, awaiting rtx
        self._rtx_flight: Set[int] = set()    # retransmitted, fate unknown
        self.finished = False
        self.retransmits = 0
        self.ecn_cuts = 0

    def on_packet(self, packet: Packet) -> None:
        """Node-bound handler; senders only care about ACKs."""
        if packet.kind == ACK:
            self._on_ack(packet)

    @property
    def snd_una(self) -> int:
        """Lowest unacknowledged sequence number."""
        return self.scoreboard.snd_una

    @property
    def pipe(self) -> int:
        """Conservation-of-packets estimate of segments in flight."""
        # scoreboard fields read directly: this runs per send decision
        board = self.scoreboard
        return (
            self.snd_nxt
            - board.snd_una
            - len(board._sacked)
            - len(self._lost)
            + len(self._rtx_flight)
        )

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        if packet.echo_ts > 0:
            self.rtt.update(self.sim.now - packet.echo_ts)
        if packet.ece and not self._in_recovery:
            # An echoed ECN mark is a congestion signal: halve once per
            # window, exactly like a loss but with nothing to retransmit.
            self.ecn_cuts += 1
            self._enter_recovery()
        board = self.scoreboard
        newly_acked = board.update(packet.ack if packet.ack is not None else 0, packet.sack)
        # Anything now known-received is no longer lost/in rtx flight
        # (both sets are empty on most ACKs: nothing to rebuild then).
        if self._lost:
            self._lost = {s for s in self._lost if not board.is_sacked(s)}
        if self._rtx_flight:
            self._rtx_flight = {s for s in self._rtx_flight
                                if not board.is_sacked(s)}

        if newly_acked > 0:
            if self._in_recovery and board.snd_una > self._recover:
                self._in_recovery = False
                self._set_cwnd(self.ssthresh)
            if not self._in_recovery:
                self._grow_window(newly_acked)
            self._restart_rto()

        self._detect_losses()
        if self.monitor is not None:
            self.monitor.check_tcp(self)
        if self.finished:
            return
        if self.limit is not None and board.snd_una >= self.limit and self.pipe <= 0:
            self.finished = True
            self._rto_timer.stop()
            return
        self._try_send()

    def _grow_window(self, newly_acked: int) -> None:
        cwnd = self.cwnd
        for _ in range(newly_acked):
            if cwnd < self.ssthresh:
                cwnd += 1.0
            else:
                cwnd += 1.0 / cwnd
        self._set_cwnd(cwnd)

    def _detect_losses(self) -> None:
        board = self.scoreboard
        fresh = [
            seq
            for seq in board.lost_segments(self.snd_nxt)
            if seq not in self._lost and seq not in self._rtx_flight
        ]
        if not fresh:
            return
        self._lost.update(fresh)
        if not self._in_recovery:
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        self._in_recovery = True
        self._recover = self.snd_nxt - 1
        self.window_cuts += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self._set_cwnd(self.ssthresh)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        self._try_send()
        if not self._rto_timer.pending:
            self._restart_rto()

    def _try_send(self) -> None:
        while self.pipe < int(self.cwnd):
            seq, is_rtx = self._next_to_send()
            if seq is None:
                return
            self._emit(seq, self.dst, is_rtx)

    def _next_to_send(self):
        if self._lost:
            seq = min(self._lost)
            self._lost.discard(seq)
            self._rtx_flight.add(seq)
            return seq, True
        if self.limit is not None and self.snd_nxt >= self.limit:
            return None, False
        seq = self.snd_nxt
        self.snd_nxt += 1
        return seq, False

    def _emit_now(self, seq: int, dst: str, is_rtx: bool) -> None:
        if is_rtx:
            self.retransmits += 1
        super()._emit_now(seq, dst, is_rtx)
        if not self._rto_timer.pending:
            self._restart_rto()

    # ------------------------------------------------------------------
    # timeout handling
    # ------------------------------------------------------------------
    def _restart_rto(self) -> None:
        if self.limit is not None and self.finished:
            return
        self._rto_timer.start(self.rtt.rto())

    def _on_timeout(self) -> None:
        if self.snd_nxt <= self.snd_una:
            return  # nothing outstanding
        self.timeouts += 1
        self.window_cuts += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self._set_cwnd(1.0)
        self.rtt.backoff()
        self._in_recovery = False
        self._recover = -1
        board = self.scoreboard
        self._rtx_flight.clear()
        self._lost = {
            seq for seq in range(board.snd_una, self.snd_nxt) if not board.is_sacked(seq)
        }
        self._restart_rto()
        self._try_send()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Snapshot of the sender's counters (diff two snapshots to window)."""
        self._note_cwnd()
        return {
            "packets_sent": self.packets_sent,
            "retransmits": self.retransmits,
            "window_cuts": self.window_cuts,
            "timeouts": self.timeouts,
            "ecn_cuts": self.ecn_cuts,
            "cwnd_integral": self.cwnd_integral,
            "cwnd": self.cwnd,
            "time": self.sim.now,
            "rtt_sum": self.rtt.sample_sum,
            "rtt_samples": self.rtt.samples,
        }

    def __repr__(self) -> str:
        return (
            f"TcpSender({self.flow}, cwnd={self.cwnd:.2f}, una={self.snd_una}, "
            f"nxt={self.snd_nxt}, cuts={self.window_cuts})"
        )
