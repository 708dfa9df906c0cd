"""Cheap per-event invariant checks with structured failure reporting.

An :class:`InvariantMonitor` is a registry of named checks.  Components of
an audited run call the ``check_*`` helpers at natural checkpoints (end of
ACK processing, end of run); a failed check becomes a
:class:`~repro.audit.violation.InvariantViolation` carrying the offending
context and the flight recorder's dump of recent events.  Per-packet
sites test inline and call :meth:`~InvariantMonitor.violate`, which builds
that context, only on failure; :meth:`~InvariantMonitor.require` is
count + violate in one call, for end-of-run and test sites.

``strict=False`` collects violations instead of raising — useful for
surveying a run without aborting at the first inconsistency.
"""

from __future__ import annotations

from typing import Any, List, Optional, TYPE_CHECKING

from .recorder import FlightRecorder
from .violation import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..net.queue import Gateway
    from ..rla.sender import RLASender
    from ..tcp.sender import TcpSender


class InvariantMonitor:
    """Runs named boolean checks; failures become structured violations."""

    def __init__(
        self,
        recorder: Optional[FlightRecorder] = None,
        strict: bool = True,
    ) -> None:
        self.recorder = recorder
        self.strict = strict
        self.checks_run = 0
        self.violations: List[InvariantViolation] = []

    # ------------------------------------------------------------------
    def violate(self, check: str, time: float = 0.0, **context: Any) -> None:
        """Raise (or, non-strict, collect) one already-counted failed check."""
        violation = InvariantViolation(
            check,
            time=time,
            context=context,
            dump=self.recorder.dump() if self.recorder is not None else "",
        )
        self.violations.append(violation)
        if self.strict:
            raise violation

    def require(
        self, check: str, condition: bool, time: float = 0.0, **context: Any
    ) -> bool:
        """Count one check and :meth:`violate` on failure.

        Returns the condition so callers can guard follow-up work in
        non-strict mode.
        """
        self.checks_run += 1
        if condition:
            return True
        self.violate(check, time, **context)
        return False

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    # ------------------------------------------------------------------
    # domain checks (read component internals; the audit layer is the one
    # privileged observer allowed to)
    # ------------------------------------------------------------------
    def check_tcp(self, sender: "TcpSender") -> None:
        """TCP sender sanity: window bounds, pipe, sequence ordering."""
        now = sender.sim.now
        self.checks_run += 1
        if not 1.0 <= sender.cwnd <= sender.config.max_cwnd:
            self.violate("tcp.cwnd_bounds", now, flow=sender.flow,
                         cwnd=sender.cwnd, max_cwnd=sender.config.max_cwnd)
        self.checks_run += 1
        if not sender.pipe >= 0:
            self.violate("tcp.pipe_nonnegative", now, flow=sender.flow,
                         pipe=sender.pipe, snd_una=sender.snd_una,
                         snd_nxt=sender.snd_nxt)
        self.checks_run += 1
        if not sender.snd_una <= sender.snd_nxt:
            self.violate("tcp.sequence_order", now, flow=sender.flow,
                         snd_una=sender.snd_una, snd_nxt=sender.snd_nxt)

    def check_rla(self, sender: "RLASender") -> None:
        """RLA sender sanity: window bounds, reach counts, ACK ordering."""
        now = sender.sim.now
        self.checks_run += 1
        if not 1.0 <= sender.cwnd <= sender.config.max_cwnd:
            self.violate("rla.cwnd_bounds", now, flow=sender.flow,
                         cwnd=sender.cwnd, max_cwnd=sender.config.max_cwnd)
        # A reach count at/above n_receivers means a completion was missed
        # (counts are popped the moment the last receiver ACKs); at/below
        # zero means a phantom ACK was counted.  One C-level min/max pass
        # per ACK; the offenders are collected only when there are any.
        counts = sender._reach.values()
        self.checks_run += 1
        if counts and not 0 < min(counts) <= max(counts) < sender.n_receivers:
            bad = {
                seq: count
                for seq, count in sender._reach.items()
                if not 0 < count < sender.n_receivers
            }
            self.violate("rla.reach_bounds", now, flow=sender.flow,
                         n_receivers=sender.n_receivers,
                         bad_counts=dict(sorted(bad.items())[:5]))
        self.checks_run += 1
        if not sender.min_last_ack <= sender.snd_nxt:
            self.violate("rla.sequence_order", now, flow=sender.flow,
                         min_last_ack=sender.min_last_ack,
                         snd_nxt=sender.snd_nxt)

    def check_gateway(self, name: str, gateway: "Gateway", time: float) -> None:
        """Gateway bookkeeping: counters must agree with physical storage."""
        physical = len(gateway.contents())
        # ``evicted`` covers dequeue-time discards (CoDel): those packets
        # were enqueued but never dequeued, so plain enqueued - dequeued
        # over-counts occupancy by exactly that number.
        self.require(
            "gateway.depth_consistent",
            gateway.depth == physical
            and gateway.enqueued - gateway.dequeued - gateway.evicted
            == physical,
            time, link=name, depth=gateway.depth, physical=physical,
            enqueued=gateway.enqueued, dequeued=gateway.dequeued,
            evicted=gateway.evicted,
        )
        self.require(
            "gateway.bytes_nonnegative", gateway.bytes_queued >= 0,
            time, link=name, bytes_queued=gateway.bytes_queued,
        )
