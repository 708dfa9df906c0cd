"""The packet — the unit every other component pushes around.

Packets are deliberately lightweight (``__slots__``; no dictionaries) since
a single full-scale experiment forwards tens of millions of them.  One class
covers data and acknowledgment packets; ACK-only fields stay ``None`` on
data packets and vice versa.

Timestamps: ``sent_time`` is stamped by the sending agent and echoed back by
receivers in ``echo_ts`` so senders can measure RTT without keeping a
per-packet table (the same trick as TCP's timestamp option).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

DATA = "DATA"
ACK = "ACK"

#: Next uid to issue.  A plain int: peeking at an ``itertools.count`` needs
#: its pickle support, which is deprecated since Python 3.12.
_next_uid = 1


def uid_counter_state() -> int:
    """The next uid that will be allocated (without consuming it).

    Process-global hidden state: packet uids come from a module-level
    counter, not from any :class:`~repro.sim.engine.Simulator`.  Snapshots
    (:mod:`repro.checkpoint`) must capture and restore it — a restored run
    in a fresh process would otherwise re-issue uids still held by pickled
    in-flight packets, tripping the conservation auditor's unique-uid
    invariant and diverging from the straight-through run.
    """
    return _next_uid


def restore_uid_counter(next_uid: int) -> None:
    """Reset the process-global uid counter so ``next_uid`` is issued next."""
    global _next_uid
    if next_uid < 1:
        raise ValueError(f"next_uid must be >= 1, got {next_uid}")
    _next_uid = next_uid

#: Process-wide observer of packet construction (``repro.audit`` installs
#: one to enforce conservation).  A module global rather than per-instance
#: state because packets are created in many places (senders, receivers,
#: multicast replication) and the hot path must stay a single ``None``
#: check when auditing is off.  Not thread-safe; one auditor at a time.
_creation_hook: Optional[Callable[["Packet"], None]] = None


def install_creation_hook(hook: Callable[["Packet"], None]) -> None:
    """Observe every subsequently constructed packet (including copies)."""
    global _creation_hook
    if _creation_hook is not None:
        raise RuntimeError("a packet creation hook is already installed")
    _creation_hook = hook


def uninstall_creation_hook(hook: Callable[["Packet"], None]) -> None:
    """Remove a hook installed by :func:`install_creation_hook` (no-op if
    another hook has since replaced it).  Equality, not identity: bound
    methods are recreated on each attribute access, so ``obj.method``
    passed here never *is* the object passed to install."""
    global _creation_hook
    if _creation_hook == hook:
        _creation_hook = None

#: Type of a SACK block: a half-open sequence range [start, end).
SackBlock = Tuple[int, int]


class Packet:
    """A simulated network packet.

    Parameters mirror the on-the-wire fields a real implementation would
    carry; see module docstring for the timestamp convention.
    """

    __slots__ = (
        "uid",
        "kind",
        "flow",
        "src",
        "dst",
        "seq",
        "size",
        "sent_time",
        "echo_ts",
        "ack",
        "sack",
        "receiver",
        "is_retransmit",
        "hops",
        "ect",
        "ce",
        "ece",
    )

    def __init__(
        self,
        kind: str,
        flow: str,
        src: str,
        dst: str,
        seq: int,
        size: int,
        sent_time: float = 0.0,
        echo_ts: float = 0.0,
        ack: Optional[int] = None,
        sack: Optional[Tuple[SackBlock, ...]] = None,
        receiver: Optional[str] = None,
        is_retransmit: bool = False,
    ) -> None:
        global _next_uid
        self.uid = _next_uid
        _next_uid += 1
        self.kind = kind
        self.flow = flow
        self.src = src
        self.dst = dst
        self.seq = seq
        self.size = size
        self.sent_time = sent_time
        self.echo_ts = echo_ts
        self.ack = ack
        self.sack = sack
        self.receiver = receiver
        self.is_retransmit = is_retransmit
        self.hops = 0
        #: ECN-capable transport (set by senders that understand marking)
        self.ect = False
        #: congestion experienced (set by a marking gateway en route)
        self.ce = False
        #: echo of CE back to the sender (set on ACKs by receivers)
        self.ece = False
        if _creation_hook is not None:
            _creation_hook(self)

    def copy(self) -> "Packet":
        """A fresh packet (new uid) with identical header fields.

        Used by multicast replication; each branch copy can then be dropped
        or delayed independently.
        """
        clone = Packet(
            self.kind,
            self.flow,
            self.src,
            self.dst,
            self.seq,
            self.size,
            sent_time=self.sent_time,
            echo_ts=self.echo_ts,
            ack=self.ack,
            sack=self.sack,
            receiver=self.receiver,
            is_retransmit=self.is_retransmit,
        )
        clone.hops = self.hops
        clone.ect = self.ect
        clone.ce = self.ce
        clone.ece = self.ece
        return clone

    def __repr__(self) -> str:
        core = f"{self.kind} {self.flow} {self.src}->{self.dst} seq={self.seq}"
        if self.kind == ACK:
            core += f" ack={self.ack}"
        return f"Packet({core})"
