"""Session wiring: one RLA sender + its receiver set on a network.

``RLASession`` joins the multicast group, instantiates the sender and one
receiver per member, binds everything to the right nodes, and exposes the
paper's reported metrics (throughput, mean cwnd, mean RTT, congestion
signals, window cuts, forced cuts) over a measurement window.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..net.addressing import group_address
from ..net.network import Network
from ..sim.engine import Simulator
from .config import RLAConfig
from .receiver import RLAReceiver
from .sender import RLASender


class RLASession:
    """A complete multicast session running the RLA."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        flow: str,
        src: str,
        members: Iterable[str],
        config: Optional[RLAConfig] = None,
        sender_cls: type = RLASender,
    ) -> None:
        self.sim = sim
        self.net = net
        self.flow = flow
        self.src = src
        self.members: List[str] = list(members)
        self.group = group_address(flow)
        self.config = config or RLAConfig()
        net.join_group(self.group, src, self.members)
        src_node = net.node(src)
        # sender_cls lets baselines (e.g. the deterministic listener) reuse
        # the session wiring with a different listening rule.
        self.sender = sender_cls(
            sim, src_node, flow, self.group, self.members, config=self.config
        )
        src_node.bind(flow, self.sender.on_packet)
        self.receivers: Dict[str, RLAReceiver] = {}
        for member in self.members:
            node = net.node(member)
            receiver = RLAReceiver(sim, node, flow, src, config=self.config)
            node.bind(flow, receiver.on_packet)
            self.receivers[member] = receiver
        self._mark: Optional[dict] = None
        # membership-churn accounting
        self.joins = 0
        self.leaves = 0
        #: final stats snapshots of departed receivers, in leave order
        self.departed: List[dict] = []

    def start(self, offset: float = 0.0) -> None:
        """Start the sender after ``offset`` seconds."""
        self.sender.start(offset)

    # ------------------------------------------------------------------
    # membership dynamics (receiver churn)
    # ------------------------------------------------------------------
    def add_member(self, member: str) -> RLAReceiver:
        """Late-join ``member`` mid-session.

        Grafts the member onto the multicast tree, admits it at the
        sender (synced to the current send point so no pre-join history
        is repaired), and binds a fresh receiver agent.  Idempotent for
        current members.
        """
        existing = self.receivers.get(member)
        if existing is not None:
            return existing
        self.net.add_member(self.group, member)
        sync_seq = self.sender.add_receiver(member)
        node = self.net.node(member)
        receiver = RLAReceiver(
            self.sim, node, self.flow, self.src,
            config=self.config, start_seq=sync_seq,
        )
        node.bind(self.flow, receiver.on_packet)
        self.receivers[member] = receiver
        if member not in self.members:
            self.members.append(member)
        self.joins += 1
        return receiver

    def remove_member(self, member: str) -> None:
        """Leave: eject ``member`` from sender, tree, and agent binding.

        Raises :class:`~repro.errors.ConfigurationError` when asked to
        remove the last receiver (a session needs one); no-op for
        non-members.  The departed receiver's final stats are kept in
        :attr:`departed` for churn analysis.
        """
        receiver = self.receivers.get(member)
        if receiver is None:
            return
        self.sender.remove_receiver(member)  # raises on last receiver
        self.net.leave_group(self.group, member)
        self.net.node(member).unbind(self.flow)
        snapshot = receiver.stats()
        snapshot["member"] = member
        snapshot["left_at"] = self.sim.now
        self.departed.append(snapshot)
        del self.receivers[member]
        self.members.remove(member)
        self.leaves += 1

    # ------------------------------------------------------------------
    # measurement-window statistics
    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Begin a measurement window (typically at warmup end)."""
        self._mark = self.sender.stats()

    def report(self) -> dict:
        """Paper-style metrics accumulated since :meth:`mark` (or start).

        Throughput is the *reliable* session throughput: the rate at which
        ``max_reach_all`` advances, i.e. data delivered to every receiver.
        """
        now = self.sender.stats()
        base = self._mark or {
            "time": 0.0,
            "max_reach_all": -1,
            "cwnd_integral": 0.0,
            "congestion_signals": 0,
            "window_cuts": 0,
            "forced_cuts": 0,
            "timeouts": 0,
            "packets_sent": 0,
            "rtx_multicast": 0,
            "rtx_unicast": 0,
            "rtt_all_sum": 0.0,
            "rtt_all_samples": 0,
            "signals_by_receiver": {},
        }
        elapsed = now["time"] - base["time"]
        if elapsed <= 0:
            elapsed = float("nan")
        rtt_n = now["rtt_all_samples"] - base["rtt_all_samples"]
        base_signals = base["signals_by_receiver"]
        return {
            "throughput_pps": (now["max_reach_all"] - base["max_reach_all"]) / elapsed,
            "mean_cwnd": (now["cwnd_integral"] - base["cwnd_integral"]) / elapsed,
            "mean_rtt": (
                (now["rtt_all_sum"] - base["rtt_all_sum"]) / rtt_n if rtt_n else 0.0
            ),
            "congestion_signals": now["congestion_signals"] - base["congestion_signals"],
            "window_cuts": now["window_cuts"] - base["window_cuts"],
            "forced_cuts": now["forced_cuts"] - base["forced_cuts"],
            "timeouts": now["timeouts"] - base["timeouts"],
            "packets_sent": now["packets_sent"] - base["packets_sent"],
            "rtx_multicast": now["rtx_multicast"] - base["rtx_multicast"],
            "rtx_unicast": now["rtx_unicast"] - base["rtx_unicast"],
            "num_trouble": now["num_trouble"],
            "n_receivers": len(self.receivers),
            # "member_*" rather than bare "joins"/"leaves": tree cases use
            # "leaves" for their receiver population, and a report key that
            # collides with it would make pickled results identity-sensitive
            # (string memoization) — breaking byte-equality across processes.
            "member_joins": self.joins,
            "member_leaves": self.leaves,
            "signals_by_receiver": {
                rid: count - base_signals.get(rid, 0)
                for rid, count in now["signals_by_receiver"].items()
            },
            "elapsed": elapsed,
        }
