"""Configuration for the TCP SACK implementation.

Sequence numbers are packet-granular (as in NS2): one segment == one
``packet_size``-byte packet.  Defaults follow the paper's simulation setup
(1000-byte packets) and the classic TCP constants, which are class
attributes, not fields: ``config.min_rto`` reads as before, and a test
that needs another value patches the class for its duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional

from ..errors import ConfigurationError
from ..units import ACK_SIZE, DEFAULT_PACKET_SIZE


@dataclass
class TcpConfig:
    """Tunables of a TCP SACK connection.

    Attributes
    ----------
    max_cwnd:
        Receiver-advertised window in packets (the cwnd clamp).
    phase_jitter:
        When set, each data packet's transmission is preceded by a uniform
        random processing delay in ``[0, phase_jitter]`` — the §3.1 device
        for breaking drop-tail phase effects.  ``None`` disables it.
    ecn:
        Enables ECN (RFC 3168, simplified): data packets are sent
        ECN-capable, receivers echo congestion marks, and the sender
        halves once per window on an echoed mark instead of waiting for a
        loss.  Requires gateways built with ``mark_ecn=True`` to have any
        effect.  An extension beyond the paper's 1998 setting.
    packet_size:
        Data segment size in bytes.
    """

    max_cwnd: float = 1e9
    phase_jitter: Optional[float] = None
    ecn: bool = False
    packet_size: int = DEFAULT_PACKET_SIZE

    # classic TCP constants (class attributes, not fields)
    #: Starting congestion window and slow-start threshold, packets.
    initial_cwnd = 1.0
    initial_ssthresh = 64.0
    #: The SACK reordering tolerance: a segment is deemed lost once a
    #: segment at least this much higher has been selectively acked.
    dupack_threshold = 3
    #: Bounds on the retransmission timer, seconds.
    min_rto = 1.0
    max_rto = 64.0
    #: Bytes per pure ACK.
    ack_size = ACK_SIZE

    def validate(self) -> "TcpConfig":
        """Raise :class:`ConfigurationError` on out-of-range parameters."""
        if not 1 <= self.max_cwnd < inf:
            raise ConfigurationError(
                f"max_cwnd must be finite and >= 1: {self.max_cwnd}")
        if self.phase_jitter is not None and not 0 <= self.phase_jitter < inf:
            raise ConfigurationError(
                f"phase_jitter must be finite and >= 0: {self.phase_jitter}")
        if self.packet_size <= 0:
            raise ConfigurationError(f"packet_size must be positive: {self.packet_size}")
        return self
