"""Configuration of the Random Listening Algorithm sender.

The fields are what a caller turns: ``eta`` (the η ablation), the
forced-cut and §5.3 switches, §3.1's phase jitter, ECN and the receiver
ACK jitter.  The §3.3 constants — losses grouped within ``2 * srtt_i``,
a forced cut after ``2 * awnd * srtt_i`` without one, ``rexmit_thresh =
0`` (all retransmissions multicast) as in the §5 runs — are class
attributes, not fields: ``config.rcv_buffer`` reads as before, and a test
that needs another value patches the class for its duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional

from ..errors import ConfigurationError
from ..units import ACK_SIZE, DEFAULT_PACKET_SIZE


@dataclass
class RLAConfig:
    """Tunables of an RLA multicast session.

    Attributes
    ----------
    eta:
        Trouble threshold constant: receiver ``i`` is *troubled* while its
        mean congestion-signal interval is below ``eta`` times the smallest
        mean interval among all receivers (§3.3 rule 6; §4.2 requires
        ``1/eta`` above ~0.03 for the upper bound — 20 is recommended).
    forced_cut_enabled:
        Ablation switch (A2): turn off the forced-cut protection.
    rtt_scaled_pthresh:
        Enables the generalized RLA of §5.3:
        ``pthresh = (srtt_i / srtt_max)^2 / num_trouble_rcvr``.
    phase_jitter:
        Uniform per-packet processing delay in ``[0, phase_jitter]`` for
        drop-tail phase-effect elimination (§3.1); ``None`` disables.
    ecn:
        ECN extension: send ECN-capable data and treat echoed marks as
        congestion signals (grouped and randomized exactly like losses).
        Needs gateways with ``mark_ecn=True``; beyond the 1998 paper.
    ack_jitter:
        Uniform random delay in ``[0, ack_jitter]`` before each receiver
        ACK.  On a symmetric tree every multicast delivery is simultaneous
        at all receivers, so their ACKs implode on the reverse bottleneck
        queue in one deterministic burst — the same receivers' ACKs are
        tail-dropped every round and the session live-locks.  Randomizing
        feedback timing (the standard multicast feedback-suppression
        device, and the receiver-side twin of §3.1's random processing
        time) desynchronizes the implosion.
    """

    eta: float = 20.0
    forced_cut_enabled: bool = True
    rtt_scaled_pthresh: bool = False
    phase_jitter: Optional[float] = None
    ecn: bool = False
    ack_jitter: float = 0.002

    # §3.3 constants (class attributes, not fields)
    #: Data and ACK sizes in bytes (§5: 1000-byte packets).
    packet_size = DEFAULT_PACKET_SIZE
    ack_size = ACK_SIZE
    #: Starting window and slow-start threshold, packets (TCP's, §3.3).
    initial_cwnd = 1.0
    initial_ssthresh = 64.0
    #: Window clamp, packets: effectively none.
    max_cwnd = 1e9
    #: §3.3 rule 1: packet P is lost once a packet >= P + 3 is SACKed.
    dupack_threshold = 3
    #: Gain of the moving average of congestion-signal intervals (rule 6).
    interval_gain = 0.125
    #: Gain of the moving average of the window (``awnd``), updated once
    #: per fully-acknowledged packet (footnote 7).
    awnd_gain = 0.05
    #: §3.3 rule 2: losses within this many srtts of the congestion-period
    #: start are one congestion signal.
    congestion_group_rtts = 2.0
    #: §3.3 rule 3b / footnote 7: force a cut if the last one is older than
    #: this factor times ``awnd * srtt_i``.
    forced_cut_awnd_rtts = 2.0
    #: Footnote 8: retransmissions requested by more than this many
    #: receivers are multicast, otherwise unicast (the §5 runs use 0).
    rexmit_thresh = 0
    #: Footnote 8: how long, in largest-receiver srtts, the sender waits to
    #: hear from every receiver before deciding how to retransmit.
    rtx_wait_rtts = 1.0
    #: §3.3 rule 5: the send window never runs more than this many packets
    #: past ``min_last_ack``.
    rcv_buffer = 256
    #: Bounds on each receiver's retransmission timer, seconds.
    min_rto = 1.0
    max_rto = 64.0

    def validate(self) -> "RLAConfig":
        """Raise :class:`ConfigurationError` on out-of-range parameters."""
        if not 1 <= self.eta < inf:
            raise ConfigurationError(f"eta must be finite and >= 1: {self.eta}")
        if self.phase_jitter is not None and not 0 <= self.phase_jitter < inf:
            raise ConfigurationError(
                f"phase_jitter must be finite and >= 0: {self.phase_jitter}")
        if not 0 <= self.ack_jitter < inf:
            raise ConfigurationError(
                f"ack_jitter must be finite and >= 0: {self.ack_jitter}")
        return self
