"""Declarative specifications for the mean-field fluid backend.

A :class:`FluidSpec` describes a *population* workload — cohorts of TCP
flows and RLA receivers sharing one or more bottleneck queues — as a
frozen, canonicalizable dataclass tree, exactly the contract
:class:`repro.runtime.RunSpec` params require.  The key scaling property
of the fluid backend lives here: cohort sizes are plain integers, so a
spec describing 10⁶ flows is the same few bytes as one describing 10,
and the ODE state it compiles to is O(cohorts + bottlenecks), never
O(flows).

Disciplines understood by the fluid queue dynamics:

* ``"droptail"`` — loss ramps up as the instantaneous queue approaches
  the physical buffer (a continuous regularization of the cliff);
* ``"red"`` — the averaged-queue ODE plus the RED drop profile
  (min_th/max_th/max_p), the system of McDonald & Reynier's mean-field
  limit;
* ``"fixed"`` — a constant loss probability, no queue feedback.  Not a
  real gateway: it exists so the validation suite can pin the window
  ODEs against the closed forms of :mod:`repro.models` at a known ``p``.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError
from ..net.red import W_Q, red_thresholds
from ..units import check_horizon

#: Queue disciplines the fluid dynamics model.
FLUID_DISCIPLINES: Tuple[str, ...] = ("droptail", "red", "fixed")

#: Fraction of the physical buffer where the drop-tail loss ramp starts.
#: Below ``DROPTAIL_RAMP * buffer`` the fluid drop-tail queue is lossless;
#: from there the loss probability rises linearly to the full excess-rate
#: loss at ``q = buffer`` (see docs/FLUID.md for the derivation).
DROPTAIL_RAMP = 0.85


def _require_finite(owner: str, **fields: float) -> None:
    """Refuse a NaN or infinite field, naming it.

    The kernel emitter writes every constant as a literal, and before
    that a NaN slipped through each range check below (every comparison
    with it is false) to end in a ``ZeroDivisionError`` or, worse, a
    plausible-looking row.
    """
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ConfigurationError(
                f"{owner} {name} must be finite: {value}")


def _require_integer(owner: str, **fields: int) -> None:
    """Refuse a fractional count or index, naming it."""
    for name, value in fields.items():
        try:
            operator.index(value)
        except TypeError:
            raise ConfigurationError(
                f"{owner} {name} must be an integer: {value!r}") from None


@dataclass(frozen=True)
class BottleneckSpec:
    """One shared queue: capacity, buffer, and its loss model.

    ``capacity_pps`` is in data packets/second (the paper's unit).  The
    RED fields are read only when ``discipline == "red"``; ``loss_p``
    only for ``"fixed"``.
    """

    capacity_pps: float
    buffer_pkts: float = 20.0
    discipline: str = "droptail"
    #: RED thresholds/gain, in packets: the packet gateway's at 20 packets.
    min_th: float = red_thresholds(20.0)[0]
    max_th: float = red_thresholds(20.0)[1]
    w_q: float = W_Q
    max_p: float = 0.1
    #: Constant loss probability for the ``"fixed"`` validation discipline.
    loss_p: float = 0.0
    label: str = ""

    def validate(self) -> "BottleneckSpec":
        """Check field sanity; returns self for chaining."""
        _require_finite("bottleneck", capacity_pps=self.capacity_pps,
                        buffer_pkts=self.buffer_pkts, min_th=self.min_th,
                        max_th=self.max_th, w_q=self.w_q, max_p=self.max_p,
                        loss_p=self.loss_p)
        if self.capacity_pps <= 0:
            raise ConfigurationError(
                f"bottleneck capacity must be positive: {self.capacity_pps}"
            )
        if self.discipline not in FLUID_DISCIPLINES:
            raise ConfigurationError(
                f"fluid backend models disciplines {FLUID_DISCIPLINES}, "
                f"not {self.discipline!r}"
            )
        if self.discipline != "fixed" and self.buffer_pkts <= 1:
            raise ConfigurationError(
                f"buffer must exceed one packet: {self.buffer_pkts}"
            )
        if self.discipline == "red":
            if not 0 < self.min_th < self.max_th:
                raise ConfigurationError(
                    f"need 0 < min_th < max_th: {self.min_th}, {self.max_th}"
                )
            if not 0 < self.w_q <= 1:
                raise ConfigurationError(f"w_q out of (0, 1]: {self.w_q}")
            if not 0 < self.max_p <= 1:
                raise ConfigurationError(f"max_p out of (0, 1]: {self.max_p}")
        if self.discipline == "fixed" and not 0 <= self.loss_p < 1:
            raise ConfigurationError(f"loss_p out of [0, 1): {self.loss_p}")
        return self


@dataclass(frozen=True)
class TcpCohortSpec:
    """``flows`` identical long-lived TCP connections behind one bottleneck.

    ``rtt_s`` is the two-way *propagation* round-trip time; queueing
    delay at the cohort's bottleneck is added by the model as ``q/C``.
    """

    flows: int
    rtt_s: float
    bottleneck: int = 0
    label: str = ""

    def validate(self, n_bottlenecks: int) -> "TcpCohortSpec":
        """Check counts, RTT, and the bottleneck reference."""
        _require_integer("TCP cohort", flows=self.flows,
                         bottleneck=self.bottleneck)
        _require_finite("TCP cohort", rtt_s=self.rtt_s)
        if self.flows < 1:
            raise ConfigurationError(f"cohort needs >= 1 flow: {self.flows}")
        if self.rtt_s <= 0:
            raise ConfigurationError(f"non-positive RTT: {self.rtt_s}")
        if not 0 <= self.bottleneck < n_bottlenecks:
            raise ConfigurationError(
                f"cohort references bottleneck {self.bottleneck}, "
                f"spec has {n_bottlenecks}"
            )
        return self


@dataclass(frozen=True)
class RlaCohortSpec:
    """``receivers`` RLA receivers behind one bottleneck.

    The (single) RLA session spans every RLA cohort in the spec: its
    traffic crosses each referenced bottleneck once (multicast sends one
    copy per tree branch), each receiver sees its own bottleneck's loss
    probability, and the session clocks on the *worst* receiver RTT —
    the worst-receiver coupling of :mod:`repro.models.rla_drift`.
    """

    receivers: int
    rtt_s: float
    bottleneck: int = 0
    label: str = ""

    def validate(self, n_bottlenecks: int) -> "RlaCohortSpec":
        """Check counts, RTT, and the bottleneck reference."""
        _require_integer("RLA cohort", receivers=self.receivers,
                         bottleneck=self.bottleneck)
        _require_finite("RLA cohort", rtt_s=self.rtt_s)
        if self.receivers < 1:
            raise ConfigurationError(
                f"cohort needs >= 1 receiver: {self.receivers}"
            )
        if self.rtt_s <= 0:
            raise ConfigurationError(f"non-positive RTT: {self.rtt_s}")
        if not 0 <= self.bottleneck < n_bottlenecks:
            raise ConfigurationError(
                f"cohort references bottleneck {self.bottleneck}, "
                f"spec has {n_bottlenecks}"
            )
        return self


@dataclass(frozen=True)
class FluidSpec:
    """One deterministic fluid run: populations, bottlenecks, horizon.

    ``duration`` is the measured window after ``warmup`` seconds of
    transient (time averages are taken over the measured window only,
    mirroring the packet experiments' mark protocol).  ``dt`` is the
    fixed RK4 step, 1 ms.  ``seed`` only carries the packet twin's seed
    into the report row; the dynamics draw no random numbers at all.
    """

    name: str
    bottlenecks: Tuple[BottleneckSpec, ...]
    tcp_cohorts: Tuple[TcpCohortSpec, ...] = ()
    rla_cohorts: Tuple[RlaCohortSpec, ...] = ()
    duration: float = 30.0
    warmup: float = 10.0
    seed: int = 1
    #: The RLA sender clocks on the worst receiver, but its effective
    #: round-trip sits *above* that receiver's RTT — equation 5 bounds
    #: it in (RTT, 2 RTT).  The model multiplies the worst effective
    #: RTT by this factor; 1.5 is the midpoint of the equation 5 band
    #: and matches the packet cross-validation.
    rla_rtt_factor: float = 1.5

    #: The RK4 step, seconds (a class attribute, not a field).
    dt = 1e-3

    # how repro.lifecycle runs this spec (class attributes, not fields)
    runner = "repro.fluid.runner:run_fluid"
    checkpointable = False

    def run_label(self) -> str:
        """The run's name in ``--metrics`` tables."""
        return f"fluid {self.name} n={self.n_tcp_flows}+{self.n_receivers}"

    def validate(self) -> "FluidSpec":
        """Check the whole tree (nested specs included); returns self."""
        if not self.name:
            raise ConfigurationError("fluid spec needs a name")
        if not self.bottlenecks:
            raise ConfigurationError("fluid spec needs >= 1 bottleneck")
        if not self.tcp_cohorts and not self.rla_cohorts:
            raise ConfigurationError("fluid spec needs at least one cohort")
        check_horizon(self.duration, self.warmup)
        _require_finite("fluid spec", rla_rtt_factor=self.rla_rtt_factor)
        if self.dt > self.duration:
            raise ConfigurationError(
                f"duration {self.duration}s is shorter than one {self.dt}s step")
        if not 1.0 <= self.rla_rtt_factor <= 2.0:
            raise ConfigurationError(
                f"rla_rtt_factor outside equation 5's [1, 2] band: "
                f"{self.rla_rtt_factor}"
            )
        for bottleneck in self.bottlenecks:
            bottleneck.validate()
        for cohort in self.tcp_cohorts:
            cohort.validate(len(self.bottlenecks))
        for cohort in self.rla_cohorts:
            cohort.validate(len(self.bottlenecks))
        # The window ODEs move on the RTT time scale; a fixed step
        # coarser than half of it integrates to a plausible-looking but
        # wrong row (rla_pps 7.4 instead of 20.3 at dt = 0.5 s).
        min_rtt = min(cohort.rtt_s
                      for cohorts in (self.tcp_cohorts, self.rla_cohorts)
                      for cohort in cohorts)
        if self.dt > 0.5 * min_rtt:
            raise ConfigurationError(
                f"integration step {self.dt}s is coarser than half the "
                f"smallest cohort RTT ({min_rtt}s)"
            )
        return self

    @property
    def horizon(self) -> float:
        """Total integrated time: warmup plus the measured window."""
        return self.warmup + self.duration

    @property
    def n_tcp_flows(self) -> int:
        """Total TCP flows across cohorts (may be millions)."""
        return sum(cohort.flows for cohort in self.tcp_cohorts)

    @property
    def n_receivers(self) -> int:
        """Total RLA receivers across cohorts (may be millions)."""
        return sum(cohort.receivers for cohort in self.rla_cohorts)

    def replace(self, **overrides) -> "FluidSpec":
        """A copy with some fields overridden (``dataclasses.replace``)."""
        return dataclasses.replace(self, **overrides)
