"""The RLA multicast sender (§3.3 of the paper).

One sender, N receivers.  Data goes out on a multicast group; every
receiver returns SACK acknowledgments.  The congestion-control skeleton:

1.  *Loss detection* — per receiver, a segment is lost once a segment at
    least 3 higher has been selectively acked by that receiver.
2.  *Congestion detection* — losses from receiver ``i`` within
    ``2 * srtt_i`` of the congestion-period start are grouped into one
    congestion signal.
3.  *Window adjustment on congestion* — update the troubled-receiver
    count; skip rare losses from non-troubled receivers; force a cut if
    the last cut is older than ``2 * awnd * srtt_i``; otherwise cut with
    probability ``pthresh = 1 / num_trouble_rcvr`` (random listening).
4.  *Window growth* — ``cwnd += 1/cwnd`` per packet ACKed by **all**
    receivers (slow start below ``ssthresh``).
5.  *Window bounds* — the lower edge trails ``max_reach_all``; the upper
    edge never exceeds ``min_last_ack + receiver buffer``.
6.  *Trouble counting* — via ``eta * min_congestion_interval`` (see
    :mod:`repro.rla.congestion`).

Retransmissions (footnote 8): the sender waits roughly one (largest) RTT
to hear from all receivers, then multicasts the repair if more than
``rexmit_thresh`` receivers want it, else unicasts to each requester; a
retry loop guarantees eventual delivery, making the session reliable.

Scaling note: every whole-group aggregate the per-ACK path needs —
``min_last_ack``, the largest receiver SRTT, the largest receiver RTO,
and the reached-all counts — is maintained *incrementally*, so the cost
per ACK is amortized O(1) in the number of receivers:

* ``_min_last_ack`` carries ``_min_count`` (how many receivers sit at
  the minimum); an O(n) rescan happens only when the whole min cohort
  has advanced, i.e. at most once per cohort per window step.
* max-SRTT / max-RTO are owner-tagged caches: a new sample either takes
  over the maximum (O(1)) or, when the owner's own value shrinks,
  lazily invalidates the cache (rescan deferred to the next read).
* membership changes touch only the joining/leaving receiver's holdings
  in ``_reach`` instead of rescanning every receiver per in-flight seq.

The maintenance hooks (``_ack_advanced``, ``_note_rtt_sample``,
``_join_*`` / ``_leave_*``) are overridden by
:class:`repro.rla.reference.NaiveRLASender`, which recomputes every
aggregate from scratch — the equivalence oracle for property and
byte-identity tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..errors import ConfigurationError
from ..net.node import Node
from ..net.packet import ACK, Packet
from ..sim.engine import Simulator
from ..sim.process import Timer
from ..tcp.sender import WindowSender
from .config import RLAConfig
from .congestion import TroubleTracker
from .state import ReceiverState

#: RTT assumed before the first sample of a receiver arrives.
_DEFAULT_SRTT = 0.1


class RLASender(WindowSender):
    """Multicast sender running the Random Listening Algorithm."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow: str,
        group: str,
        receiver_ids: List[str],
        config: Optional[RLAConfig] = None,
    ) -> None:
        if not receiver_ids:
            raise ConfigurationError("RLA session needs at least one receiver")
        super().__init__(sim, node, flow, config or RLAConfig())
        self.group = group
        cfg = self.config
        self.receivers: Dict[str, ReceiverState] = {
            rid: ReceiverState(rid, cfg.min_rto, cfg.max_rto) for rid in receiver_ids
        }
        self.n_receivers = len(receiver_ids)
        self.tracker = TroubleTracker(cfg.eta, cfg.interval_gain)

        # window state
        self.awnd: float = cfg.initial_cwnd
        self.max_reach_all = -1          # highest seq received by ALL receivers
        self._min_last_ack = 0
        #: receivers whose last_ack equals ``_min_last_ack``; the min is
        #: rescanned only when this count drains to zero.
        self._min_count = self.n_receivers
        self.last_window_cut = sim.now

        # aggregate caches: value + the receiver that owns it.  An owner
        # of ``None`` marks the cache dirty (rescan on next read); while
        # owned, samples either take the max over in O(1) or invalidate.
        self._max_srtt_cache = _DEFAULT_SRTT
        self._max_srtt_owner: Optional[ReceiverState] = None
        self._max_rto_cache = 0.0
        self._max_rto_owner: Optional[ReceiverState] = None

    # reliability state
        self._reach: Dict[int, int] = {}          # seq -> receivers holding it
        self._send_time: Dict[int, float] = {}    # seq -> first transmission time
        self._retransmitted: Set[int] = set()
        self._rtx_requests: Dict[int, Set[str]] = {}
        self._rtx_scheduled: Set[int] = set()
        self._all_ack_timer = Timer(sim, self._on_timeout, name=f"{flow}.rto")

        self._listen_rng = sim.rng.stream(f"{flow}.listen")

        # lifetime statistics
        self.rtx_multicast = 0
        self.rtx_unicast = 0
        self.congestion_signals = 0
        self.forced_cuts = 0
        self.rtt_all_sum = 0.0
        self.rtt_all_samples = 0
        #: per-receiver signal counters, maintained on each congestion
        #: signal and mirroring ``self.receivers`` insertion order so a
        #: :meth:`stats` snapshot is an O(n) dict copy, not a rebuild.
        self._signals_by_receiver: Dict[str, int] = {
            rid: 0 for rid in self.receivers
        }

    # ------------------------------------------------------------------
    # public control
    # ------------------------------------------------------------------
    def start(self, offset: float = 0.0) -> None:
        """Begin transmitting after ``offset`` seconds."""
        if self._started:
            return
        start_time = self.sim.now + offset
        for state in self.receivers.values():
            state.observation_start = start_time
        self.last_window_cut = start_time
        super().start(offset)

    def on_packet(self, packet: Packet) -> None:
        """Node-bound handler; the sender consumes receiver ACKs."""
        if packet.kind == ACK and packet.receiver is not None:
            self._on_ack(packet)

    @property
    def min_last_ack(self) -> int:
        """Smallest cumulative ACK point over all receivers (§3.3)."""
        return self._min_last_ack

    # ------------------------------------------------------------------
    # incremental aggregates
    # ------------------------------------------------------------------
    def _rescan_min_last_ack(self) -> None:
        """Full O(n) min rescan; runs only when the min cohort drained."""
        lowest = None
        count = 0
        for st in self.receivers.values():
            la = st.last_ack
            if lowest is None or la < lowest:
                lowest, count = la, 1
            elif la == lowest:
                count += 1
        assert lowest is not None
        self._min_last_ack = lowest
        self._min_count = count

    def _ack_advanced(self, state: ReceiverState, old_last_ack: int) -> None:
        """Maintain ``_min_last_ack`` after ``state``'s cumulative point grew.

        ``last_ack`` only ever increases, so the minimum can change only
        when a member of the current min cohort advances past it.
        """
        if old_last_ack == self._min_last_ack:
            self._min_count -= 1
            if not self._min_count:
                self._rescan_min_last_ack()

    def _note_rtt_sample(self, state: ReceiverState) -> None:
        """Maintain the max-SRTT / max-RTO caches after an RTT sample.

        A sample at or above the cached maximum takes ownership in O(1);
        a shrinking owner invalidates its cache (rescan deferred to the
        next :meth:`_max_srtt` / :meth:`_rto` read).  RLA never calls
        ``RttEstimator.backoff``, so samples are the only RTO mutations.
        """
        srtt = state.rtt.srtt
        if self._max_srtt_owner is not None:
            if srtt >= self._max_srtt_cache:
                self._max_srtt_cache = srtt
                self._max_srtt_owner = state
            elif self._max_srtt_owner is state:
                self._max_srtt_owner = None
        rto = state.rtt.rto()
        if self._max_rto_owner is not None:
            if rto >= self._max_rto_cache:
                self._max_rto_cache = rto
                self._max_rto_owner = state
            elif self._max_rto_owner is state:
                self._max_rto_owner = None

    def _max_srtt(self) -> float:
        if self._max_srtt_owner is None:
            best = None
            best_v = 0.0
            for st in self.receivers.values():
                v = st.srtt(_DEFAULT_SRTT)
                if best is None or v > best_v:
                    best, best_v = st, v
            self._max_srtt_owner = best
            self._max_srtt_cache = best_v
        return self._max_srtt_cache

    # ------------------------------------------------------------------
    # ACK path
    # ------------------------------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        state = self.receivers.get(packet.receiver)
        if state is None:
            return
        now = self.sim.now
        if packet.echo_ts > 0:
            state.rtt.update(now - packet.echo_ts)
            self._note_rtt_sample(state)

        old_last_ack = state.last_ack
        newly = state.update_ack(packet.ack if packet.ack is not None else 0, packet.sack)
        if state.last_ack != old_last_ack:
            self._ack_advanced(state, old_last_ack)
        for seq in newly:
            self._count_reach(seq)

        fresh_losses = state.detect_losses(self.snd_nxt, self.config.dupack_threshold)
        if fresh_losses:
            for seq in fresh_losses:
                self._request_retransmit(seq, state.id)
        if fresh_losses or packet.ece:
            # Losses and echoed ECN marks feed the same congestion-period
            # grouping: at most one signal per 2*srtt per receiver.
            srtt = state.srtt(_DEFAULT_SRTT)
            if now - state.cperiod_start > self.config.congestion_group_rtts * srtt:
                state.cperiod_start = now
                self._on_congestion_signal(state, srtt)

        self._all_ack_timer.start(self._rto())
        self._try_send()
        if self.monitor is not None:
            self.monitor.check_rla(self)

    def _count_reach(self, seq: int) -> None:
        count = self._reach.get(seq, 0) + 1
        if count < self.n_receivers:
            self._reach[seq] = count
            return
        self._reach.pop(seq, None)
        self._on_full_ack(seq)

    def _on_full_ack(self, seq: int) -> None:
        """Rule 4: a packet ACKed by all receivers grows the window."""
        if seq > self.max_reach_all:
            self.max_reach_all = seq
        first_sent = self._send_time.pop(seq, None)
        if first_sent is not None and seq not in self._retransmitted:
            self.rtt_all_sum += self.sim.now - first_sent
            self.rtt_all_samples += 1
        self._retransmitted.discard(seq)
        self._rtx_requests.pop(seq, None)
        if self.cwnd < self.ssthresh:
            self._set_cwnd(self.cwnd + 1.0)
        else:
            self._set_cwnd(self.cwnd + 1.0 / self.cwnd)
        self.awnd += self.config.awnd_gain * (self.cwnd - self.awnd)

    # ------------------------------------------------------------------
    # membership (the §4.3 slow-receiver option + late join)
    # ------------------------------------------------------------------
    def add_receiver(self, receiver_id: str) -> int:
        """Admit a receiver mid-session (late join); returns its sync seq.

        The joiner is synced to the current send point ``snd_nxt``: its
        state is created with ``last_ack = snd_nxt``, so every sequence
        already transmitted counts as held by definition and the session
        never repairs pre-join history for it.  The matching
        :class:`~repro.rla.receiver.RLAReceiver` must be built with
        ``start_seq`` equal to the returned value so both ends agree on
        where the joiner's stream begins.
        """
        if receiver_id in self.receivers:
            return self.snd_nxt  # idempotent: already a member
        cfg = self.config
        now = self.sim.now
        sync_seq = self.snd_nxt
        state = ReceiverState(receiver_id, cfg.min_rto, cfg.max_rto)
        state.last_ack = sync_seq
        state.max_sacked = sync_seq - 1
        state.observation_start = now
        self.receivers[receiver_id] = state
        self.n_receivers += 1
        self._signals_by_receiver[receiver_id] = 0
        self._join_aggregates(state)
        self._join_reach(state)
        self.tracker.recount(now, self.receivers.values())
        self._try_send()
        return sync_seq

    def _join_aggregates(self, state: ReceiverState) -> None:
        """Fold a joiner into min-last-ack and the max-SRTT/RTO caches.

        The joiner's ``last_ack`` is ``snd_nxt``, at or above every
        existing cumulative point, so the minimum itself cannot change —
        only its cohort count when the session has nothing outstanding.
        """
        if state.last_ack == self._min_last_ack:
            self._min_count += 1
        if self._max_srtt_owner is not None:
            v = state.srtt(_DEFAULT_SRTT)
            if v >= self._max_srtt_cache:
                self._max_srtt_cache = v
                self._max_srtt_owner = state
        if self._max_rto_owner is not None:
            rto = state.rtt.rto()
            if rto >= self._max_rto_cache:
                self._max_rto_cache = rto
                self._max_rto_owner = state

    def _join_reach(self, state: ReceiverState) -> None:
        """Count the joiner into every in-flight sequence's reach count.

        Every in-flight seq is below the sync point, so the joiner holds
        it by definition (``has`` consults ``last_ack``).  No completion
        can fire here: a pre-join count is at most ``n - 2`` (a count of
        ``n - 1`` would already have completed), so the new count is at
        most ``n - 1`` against the grown threshold.  Sequences with no
        explicit ACKs yet must still be counted — if one missed the
        joiner as an implicit holder it could only ever collect ``n - 1``
        explicit ACKs, freezing ``max_reach_all`` and deadlocking the
        cwnd-edge of the send window.
        """
        reach = self._reach
        for seq in self._send_time:
            reach[seq] = reach.get(seq, 0) + 1

    def remove_receiver(self, receiver_id: str) -> None:
        """Eject a receiver from the session (§4.3's drop-the-laggard option).

        The reached-all threshold shrinks, so packets the departed
        receiver was the last holdout for complete immediately; the send
        window's buffer bound is recomputed from the remaining receivers.
        Packets the ejected receiver ACKs after removal are ignored.
        """
        state = self.receivers.pop(receiver_id, None)
        if state is None:
            return
        if not self.receivers:
            # keep the invariant "at least one receiver": re-add and refuse
            self.receivers[receiver_id] = state
            raise ConfigurationError("cannot remove the last receiver")
        self.n_receivers -= 1
        del self._signals_by_receiver[receiver_id]
        self._leave_aggregates(state)
        # Purge pending retransmit requests from the departed receiver: a
        # decision timer armed before the ejection would otherwise look its
        # id up in ``receivers`` and crash (or, worse, repair for a member
        # that left).  Empty requester sets are left for the timer to pop.
        for requesters in self._rtx_requests.values():
            requesters.discard(receiver_id)
        self._leave_reach(state)
        self.tracker.recount(self.sim.now, self.receivers.values())
        self._try_send()

    def _leave_aggregates(self, state: ReceiverState) -> None:
        """Retire a leaver from min-last-ack and the max-SRTT/RTO caches."""
        if state.last_ack == self._min_last_ack:
            self._min_count -= 1
            if not self._min_count:
                self._rescan_min_last_ack()
        if self._max_srtt_owner is state:
            self._max_srtt_owner = None
        if self._max_rto_owner is state:
            self._max_rto_owner = None

    def _leave_reach(self, state: ReceiverState) -> None:
        """Subtract the leaver's holdings from the reach counts.

        Only the departed receiver's own ``has`` is consulted per pending
        sequence; the shrunken threshold completes exactly the sequences
        it was the last holdout for, in ascending order (completion order
        feeds float accumulators, so it must match a full sorted rebuild).
        Zero counts are dropped: ``_count_reach`` treats a missing entry
        as zero, and the audit layer checks ``0 < count < n``.
        """
        reach = self._reach
        completed = []
        for seq in list(reach):
            if state.has(seq):
                count = reach[seq] - 1
                if count:
                    reach[seq] = count
                else:
                    del reach[seq]
            elif reach[seq] >= self.n_receivers:
                del reach[seq]
                completed.append(seq)
        completed.sort()
        for seq in completed:
            self._on_full_ack(seq)

    # ------------------------------------------------------------------
    # congestion reaction (the random listening core)
    # ------------------------------------------------------------------
    def _on_congestion_signal(self, state: ReceiverState, srtt: float) -> None:
        now = self.sim.now
        self.congestion_signals += 1
        self.tracker.record_signal(state, now, self.receivers.values())
        self._signals_by_receiver[state.id] = state.signals
        if not state.troubled:
            return  # rare loss from a non-troubled receiver: skip (rule 3)
        cfg = self.config
        # The forced-cut deadline rides the session's round-trip time (the
        # largest receiver srtt): with heterogeneous RTTs, using the
        # signalling receiver's own srtt would give near receivers an
        # absurdly short deadline and forced cuts would displace random
        # listening entirely (the paper's tables show zero forced cuts).
        if (
            cfg.forced_cut_enabled
            and now - self.last_window_cut
            > cfg.forced_cut_awnd_rtts * self.awnd * self._max_srtt()
        ):
            self._cut_window(forced=True)
            return
        scale = 1.0
        if cfg.rtt_scaled_pthresh:
            ratio = srtt / self._max_srtt()
            scale = ratio * ratio
        if self._listen_rng.random() <= self.tracker.pthresh(scale):
            self._cut_window(forced=False)

    def _cut_window(self, forced: bool) -> None:
        self.window_cuts += 1
        if forced:
            self.forced_cuts += 1
        self._set_cwnd(self.cwnd / 2.0)
        self.ssthresh = max(self.cwnd, 2.0)
        self.last_window_cut = self.sim.now

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        self._try_send()
        if not self._all_ack_timer.pending:
            self._all_ack_timer.start(self._rto())

    def _window_limit(self) -> int:
        by_cwnd = self.max_reach_all + 1 + int(self.cwnd)
        by_buffer = self._min_last_ack + self.config.rcv_buffer
        return min(by_cwnd, by_buffer)

    def _try_send(self) -> None:
        limit = self._window_limit()
        while self.snd_nxt < limit:
            seq = self.snd_nxt
            self.snd_nxt += 1
            self._send_time[seq] = self.sim.now
            self._emit(seq, self.group, is_rtx=False)

    # ------------------------------------------------------------------
    # retransmission engine (footnote 8)
    # ------------------------------------------------------------------
    def _request_retransmit(self, seq: int, receiver_id: str) -> None:
        self._rtx_requests.setdefault(seq, set()).add(receiver_id)
        if seq in self._rtx_scheduled:
            return
        self._rtx_scheduled.add(seq)
        wait = self.config.rtx_wait_rtts * self._max_srtt()
        self.sim.post(wait, self._decide_retransmit, (seq,),
                      f"{self.flow}.rtx")

    def _decide_retransmit(self, seq: int) -> None:
        self._rtx_scheduled.discard(seq)
        requesters = self._rtx_requests.pop(seq, set())
        # ``.get``: a requester may have been ejected between its request
        # and this timer firing; ejected receivers need no repair.
        missing = [
            rid for rid in requesters
            if (state := self.receivers.get(rid)) is not None
            and not state.has(seq)
        ]
        if not missing:
            return
        self._send_repair(seq, missing)

    def _send_repair(self, seq: int, missing: List[str]) -> None:
        self._retransmitted.add(seq)
        if len(missing) > self.config.rexmit_thresh:
            self.rtx_multicast += 1
            self._emit(seq, self.group, is_rtx=True)
        else:
            for rid in missing:
                self.rtx_unicast += 1
                self._emit(seq, rid, is_rtx=True)
        retry_after = 2.0 * self._max_srtt() + self.config.min_rto
        self.sim.post(retry_after, self._verify_repair, (seq,),
                      f"{self.flow}.rtxchk")

    def _verify_repair(self, seq: int) -> None:
        """Retry loop: keep repairing until every receiver holds ``seq``.

        Note ``max_reach_all`` cannot serve as the delivery check here: it
        is the highest seq received by all and deliberately skips holes.
        """
        missing = [rid for rid, st in self.receivers.items() if not st.has(seq)]
        if missing:
            self._send_repair(seq, missing)

    # ------------------------------------------------------------------
    # timeout safety net
    # ------------------------------------------------------------------
    def _rto(self) -> float:
        if self._max_rto_owner is None:
            best = None
            best_v = 0.0
            for st in self.receivers.values():
                v = st.rtt.rto()
                if best is None or v > best_v:
                    best, best_v = st, v
            self._max_rto_owner = best
            self._max_rto_cache = best_v
        return self._max_rto_cache

    def _on_timeout(self) -> None:
        """No ACK from anyone for a full RTO — treat like a TCP timeout."""
        if self._min_last_ack >= self.snd_nxt:
            return  # nothing outstanding (everyone holds all of [0, snd_nxt))
        self.timeouts += 1
        self.window_cuts += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self._set_cwnd(1.0)
        self.last_window_cut = self.sim.now
        # Repair every outstanding hole: small-window losses sit below the
        # 3-dupack detection threshold, so one-hole-per-RTO recovery would
        # crawl (and back off) forever in a lossy startup.
        for seq in range(self._min_last_ack, self.snd_nxt):
            missing = [rid for rid, st in self.receivers.items() if not st.has(seq)]
            if missing:
                self._send_repair(seq, missing)
        self._all_ack_timer.start(self._rto())

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot; experiments diff two snapshots for a window."""
        self._note_cwnd()
        return {
            "packets_sent": self.packets_sent,
            "rtx_multicast": self.rtx_multicast,
            "rtx_unicast": self.rtx_unicast,
            "congestion_signals": self.congestion_signals,
            "window_cuts": self.window_cuts,
            "forced_cuts": self.forced_cuts,
            "timeouts": self.timeouts,
            "cwnd_integral": self.cwnd_integral,
            "cwnd": self.cwnd,
            "max_reach_all": self.max_reach_all,
            "rtt_all_sum": self.rtt_all_sum,
            "rtt_all_samples": self.rtt_all_samples,
            # a plain copy (the maintained dict mirrors ``receivers``
            # insertion order, so snapshots pickle identically to a
            # freshly built comprehension)
            "signals_by_receiver": dict(self._signals_by_receiver),
            "num_trouble": self.tracker.num_trouble,
            "time": self.sim.now,
        }

    def __repr__(self) -> str:
        return (
            f"RLASender({self.flow}, cwnd={self.cwnd:.2f}, reach={self.max_reach_all}, "
            f"nxt={self.snd_nxt}, cuts={self.window_cuts}, n={self.n_receivers})"
        )
