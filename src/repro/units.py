"""Unit helpers for bandwidth, time and packet sizes.

The paper quotes link capacities in packets per second for 1000-byte data
packets, while the simulator internally works in bits per second and float
seconds.  These helpers keep the conversions explicit and in one place.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError

#: Data packet size used throughout the paper's evaluation (section 5).
DEFAULT_PACKET_SIZE = 1000  # bytes

#: Size of pure acknowledgment packets (TCP/RLA header only).
ACK_SIZE = 40  # bytes

BITS_PER_BYTE = 8

MILLISECONDS = 1e-3
MICROSECONDS = 1e-6

KILO = 1e3
MEGA = 1e6
GIGA = 1e9


def check_horizon(duration: float, warmup: float) -> None:
    """Every spec's horizon check; a NaN or infinite one fails too.

    No event time exceeds such a horizon: ``run(until=...)`` never returns.
    """
    if not (0 < duration < math.inf and 0 <= warmup < math.inf):
        raise ConfigurationError(f"need duration > 0 and warmup >= 0, both "
                                 f"finite: duration={duration}, warmup={warmup}")


def bits(nbytes: float) -> float:
    """Return the number of bits in ``nbytes`` bytes."""
    return nbytes * BITS_PER_BYTE


def pps_to_bps(pkts_per_sec: float, packet_size: int = DEFAULT_PACKET_SIZE) -> float:
    """Convert a packets/second rate to bits/second.

    ``packet_size`` is in bytes; the paper's tables use 1000-byte packets.
    """
    if pkts_per_sec < 0:
        raise ConfigurationError(f"negative rate: {pkts_per_sec}")
    return pkts_per_sec * bits(packet_size)


def bps_to_pps(bits_per_sec: float) -> float:
    """Convert a bits/second capacity to packets/second of the default size."""
    return bits_per_sec / bits(DEFAULT_PACKET_SIZE)


def mbps(value: float) -> float:
    """Return ``value`` megabits/second expressed in bits/second."""
    return value * MEGA


def kbps(value: float) -> float:
    """Return ``value`` kilobits/second expressed in bits/second."""
    return value * KILO


def ms(value: float) -> float:
    """Return ``value`` milliseconds expressed in seconds."""
    return value * MILLISECONDS


def transmission_time(size_bytes: int, bandwidth_bps: float) -> float:
    """Serialization delay of a ``size_bytes`` packet on a link.

    Raises :class:`ConfigurationError` for non-positive bandwidth, which
    would otherwise silently produce infinite or negative delays.
    """
    if bandwidth_bps <= 0:
        raise ConfigurationError(f"non-positive bandwidth: {bandwidth_bps}")
    return bits(size_bytes) / bandwidth_bps
