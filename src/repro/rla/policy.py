"""Slow-receiver ejection — the §4.3 option.

When one receiver is much more congested than the rest, the RLA gives the
session up to O(n) times the bottleneck TCP share — §4.3: "If this is not
desirable, the RLA can implement an option to drop this slow receiver."

Detection: because delivery is reliable, the *rate* of progress is the
same for every receiver (the whole session drains at the slowest branch's
pace) — what distinguishes the laggard is its cumulative-ACK point
sitting persistently about one congestion window behind the leading
receiver's (the send window trails ``max_reach_all`` by ``cwnd``, §3.3
rule 5).  :class:`LaggardDropPolicy` ejects a receiver whose gap behind
the leader reaches half the average window (at least two packets)
continuously for ``patience`` seconds.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError
from ..sim.engine import Simulator
from ..sim.process import PeriodicProcess
from .sender import RLASender


class LaggardDropPolicy:
    """Watches an :class:`RLASender` and ejects persistently slow receivers."""

    #: Receivers the policy never ejects below.
    MIN_RECEIVERS = 1

    def __init__(
        self,
        sim: Simulator,
        sender: RLASender,
        check_interval: float = 5.0,
        patience: float = 15.0,
        on_drop: Optional[Callable[[str], None]] = None,
    ) -> None:
        if check_interval <= 0:
            raise ConfigurationError(f"non-positive check_interval: {check_interval}")
        if patience < check_interval:
            raise ConfigurationError("patience must cover at least one check")
        self.sim = sim
        self.sender = sender
        self.patience = patience
        self.on_drop = on_drop
        self.dropped: List[str] = []
        self._lagging_since: Dict[str, float] = {}
        self._process = PeriodicProcess(sim, check_interval, self._check,
                                        name=f"{sender.flow}.laggard")

    def start(self) -> None:
        """Begin monitoring."""
        self._process.start()

    def stop(self) -> None:
        """Stop monitoring (already-dropped receivers stay dropped)."""
        self._process.stop()

    # ------------------------------------------------------------------
    def _check(self) -> None:
        sender = self.sender
        if len(sender.receivers) <= self.MIN_RECEIVERS:
            return
        leader = max(state.last_ack for state in sender.receivers.values())
        now = self.sim.now
        # A laggard's gap is pinned at roughly the congestion window (the
        # send window trails max_reach_all by cwnd); healthy receivers sit
        # a handful of packets apart.  The threshold is half the average
        # window.
        threshold = max(2.0, 0.5 * sender.awnd)
        for rid, state in list(sender.receivers.items()):
            if leader - state.last_ack >= threshold:
                since = self._lagging_since.setdefault(rid, now)
                if now - since >= self.patience:
                    self._drop(rid)
            else:
                self._lagging_since.pop(rid, None)

    def _drop(self, rid: str) -> None:
        if len(self.sender.receivers) <= self.MIN_RECEIVERS:
            return
        self.sender.remove_receiver(rid)
        self._lagging_since.pop(rid, None)
        self.dropped.append(rid)
        if self.on_drop is not None:
            self.on_drop(rid)
