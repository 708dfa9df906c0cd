"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, canonicalizable description of one
complete workload: a generated topology, a background-traffic mix, an
optional receiver-churn process, and the run window.  Because it is a
plain dataclass tree it flows straight into
:class:`repro.runtime.RunSpec` params — content-addressed caching,
process-pool fan-out and ``--audit`` all come for free.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from ..errors import ConfigurationError
from ..net.queue import GATEWAY_DISCIPLINES
from ..units import check_horizon
from .churn import ChurnSpec
from .topologies import (
    JitteredTreeTopology,
    RttCohortTopology,
    TransitStubTopology,
    WaxmanTopology,
)
from .traffic import BackgroundTraffic, PacketSizeMix

Topology = Union[WaxmanTopology, TransitStubTopology, JitteredTreeTopology,
                 RttCohortTopology]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, seeded workload scenario.

    ``receivers`` is the multicast population when there is no churn;
    with a :class:`ChurnSpec` the churn process governs membership and
    ``receivers`` is ignored.  ``duration`` is the measured window after
    ``warmup`` seconds; churn and background traffic run over the whole
    ``warmup + duration`` horizon.
    """

    name: str
    topology: Topology = field(default_factory=WaxmanTopology)
    traffic: BackgroundTraffic = field(default_factory=BackgroundTraffic)
    churn: Optional[ChurnSpec] = None
    receivers: int = 4
    duration: float = 30.0
    warmup: float = 10.0
    seed: int = 1
    #: Queue discipline on generated links — any name in
    #: :data:`repro.net.GATEWAY_DISCIPLINES` (droptail, red, red-byte,
    #: red-adaptive, codel, pie).
    gateway: str = "droptail"
    #: ECN: gateways CE-mark ECT packets instead of early-dropping, and
    #: TCP/RLA endpoints negotiate ECT + react to echoed marks.  Invalid
    #: with drop-tail, which has no early-notification mechanism.
    ecn: bool = False
    #: Per-source packet-size heterogeneity; ``None`` keeps the uniform
    #: 1000-byte default (and the historical RNG draw sequence).
    packet_sizes: Optional[PacketSizeMix] = None
    audited: bool = False

    # how repro.lifecycle runs this spec (class attributes, not fields)
    runner = "repro.scenarios.runner:run_scenario"
    checkpointable = True

    def run_label(self) -> str:
        """The run's name in ``--metrics`` tables."""
        return f"scenario {self.name} seed={self.seed} ({self.gateway})"

    def validate(self) -> "ScenarioSpec":
        """Check field sanity (and nested specs); returns self for chaining."""
        if not self.name:
            raise ConfigurationError("scenario needs a name")
        check_horizon(self.duration, self.warmup)
        if self.gateway not in GATEWAY_DISCIPLINES:
            raise ConfigurationError(
                f"unknown gateway type {self.gateway!r}; "
                f"expected one of {GATEWAY_DISCIPLINES}"
            )
        if self.ecn and self.gateway == "droptail":
            raise ConfigurationError(
                "ecn=True needs an AQM gateway: drop-tail has no early "
                "notification to convert into a CE mark"
            )
        self.topology.validate()
        self.traffic.validate()
        if self.packet_sizes is not None:
            self.packet_sizes.validate()
        if self.churn is not None:
            self.churn.validate()
        elif self.receivers < 1:
            raise ConfigurationError(
                f"need at least one receiver without churn: {self.receivers}"
            )
        return self

    @property
    def horizon(self) -> float:
        """Total simulated time: warmup plus the measured window."""
        return self.warmup + self.duration

    def replace(self, **overrides) -> "ScenarioSpec":
        """A copy with some fields overridden (``dataclasses.replace``)."""
        return dataclasses.replace(self, **overrides)
