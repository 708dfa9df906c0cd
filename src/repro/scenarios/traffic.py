"""Background-traffic workloads layered on generated topologies.

Two flavours of cross traffic, both driven by the dedicated
``scenario.traffic`` RNG stream so a workload is a pure function of the
scenario seed:

* **Pareto on/off sources** — the classic self-similar-traffic building
  block: a CBR pump toggled by heavy-tailed on and off periods, giving
  bursts at every timescale.
* **Web mice** — short-lived TCP transfers arriving as a Poisson process
  with Pareto-distributed sizes, the flash-crowd foreground that real
  multicast sessions must coexist with.  Each mouse is a full
  :class:`~repro.tcp.flow.TcpFlow` with a transfer ``limit``, so mice
  exercise slow start, SACK recovery and the finite-transfer path.

Long-lived competing TCP flows are plain ``TcpFlow``s and are placed by
the scenario runner directly; this module covers the generative parts.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..net.apps import CbrSource, PacketSink
from ..net.network import Network
from ..sim.engine import Simulator
from ..tcp.config import TcpConfig
from ..tcp.flow import TcpFlow
from ..units import DEFAULT_PACKET_SIZE

#: Name of the RNG stream all workload generators draw from.
TRAFFIC_STREAM = "scenario.traffic"


@dataclass(frozen=True)
class PacketSizeMix:
    """Per-source packet-size heterogeneity: mice / bulk / video classes.

    Each traffic source draws its packet size once, at placement time,
    from the three weighted classes (40-byte ACK-sized mice, 1000-byte
    bulk — the repo default — and 1400-byte near-MTU video frames).  The
    weighted :attr:`mean_size` is what links provision their service-time
    estimate with, and what byte-mode RED normalizes its probability
    scaling by — the heterogeneity axis of the AQM study matrix.
    """

    mice_weight: float = 0.0
    bulk_weight: float = 1.0
    video_weight: float = 0.0

    # the class sizes, bytes (class attributes, not fields)
    mice_size = 40
    bulk_size = DEFAULT_PACKET_SIZE
    video_size = 1400

    def validate(self) -> "PacketSizeMix":
        """Check parameter sanity; returns self for chaining."""
        weights = (self.mice_weight, self.bulk_weight, self.video_weight)
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigurationError(
                f"class weights must be >= 0 and sum positive: {weights}"
            )
        return self

    @property
    def mean_size(self) -> int:
        """Weighted mean packet size, rounded to whole bytes (>= 1)."""
        sizes = (self.mice_size, self.bulk_size, self.video_size)
        weights = (self.mice_weight, self.bulk_weight, self.video_weight)
        total = sum(weights)
        mean = sum(s * w for s, w in zip(sizes, weights)) / total
        return max(1, int(round(mean)))

    def draw(self, rng: random.Random) -> int:
        """One weighted class draw (a per-source size, not per-packet)."""
        sizes = (self.mice_size, self.bulk_size, self.video_size)
        weights = (self.mice_weight, self.bulk_weight, self.video_weight)
        total = sum(weights)
        point = rng.random() * total
        acc = 0.0
        for size, weight in zip(sizes, weights):
            acc += weight
            if point < acc:
                return size
        return sizes[-1]


def pareto_draw(rng: random.Random, mean: float, alpha: float) -> float:
    """One draw from a Pareto distribution with the given *mean*.

    Parameterized by mean rather than scale: ``xm = mean * (alpha-1) /
    alpha`` so workload specs stay in intuitive units.  Requires
    ``alpha > 1`` for the mean to exist.
    """
    if alpha <= 1.0:
        raise ConfigurationError(f"Pareto mean needs alpha > 1: {alpha}")
    if mean <= 0.0:
        raise ConfigurationError(f"non-positive Pareto mean: {mean}")
    xm = mean * (alpha - 1.0) / alpha
    return xm / (1.0 - rng.random()) ** (1.0 / alpha)


@dataclass(frozen=True)
class BackgroundTraffic:
    """Declarative cross-traffic mix for one scenario.

    ``tcp_flows`` long-lived competitors are placed on distinct receiver
    hosts by the runner.  ``pareto_sources`` on/off pumps and a Poisson
    stream of ``mice_rate_per_s`` short TCP transfers ride on randomly
    drawn hosts.
    """

    tcp_flows: int = 2
    pareto_sources: int = 0
    pareto_rate_pps: float = 50.0
    pareto_on_s: float = 0.5
    pareto_off_s: float = 1.0
    mice_rate_per_s: float = 0.0
    mice_mean_pkts: int = 20

    # tail shapes and the mouse size cap (class attributes, not fields)
    pareto_alpha = 1.5
    mice_alpha = 1.2
    mice_max_pkts = 500

    def validate(self) -> "BackgroundTraffic":
        """Check parameter sanity; returns self for chaining."""
        if self.tcp_flows < 0 or self.pareto_sources < 0:
            raise ConfigurationError("flow counts must be >= 0")
        if self.mice_rate_per_s < 0:
            raise ConfigurationError(
                f"negative mice rate: {self.mice_rate_per_s}"
            )
        if self.pareto_sources > 0:
            if self.pareto_rate_pps <= 0 or self.pareto_on_s <= 0 or self.pareto_off_s <= 0:
                raise ConfigurationError("Pareto on/off parameters must be positive")
        if self.mice_rate_per_s > 0 and not (
                1 <= self.mice_mean_pkts <= self.mice_max_pkts):
            raise ConfigurationError(
                f"need 1 <= mice_mean_pkts <= {self.mice_max_pkts}: "
                f"{self.mice_mean_pkts}"
            )
        return self


class ParetoOnOffSource:
    """A CBR pump toggled by heavy-tailed on/off periods.

    During "on" periods the underlying :class:`CbrSource` emits at
    ``rate_pps``; period lengths are Pareto draws around the configured
    means.  All draws come from the RNG handed in (the scenario traffic
    stream), never from module-level randomness.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        flow: str,
        src: str,
        dst: str,
        rate_pps: float,
        mean_on_s: float,
        mean_off_s: float,
        alpha: float,
        rng: random.Random,
        packet_size: int = DEFAULT_PACKET_SIZE,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.alpha = alpha
        self.source = CbrSource(sim, net.node(src), flow, dst, rate_pps,
                                packet_size=packet_size)
        self.sink = PacketSink(net.node(dst), flow)
        self.bursts = 0

    def start(self, offset: float = 0.0) -> None:
        """Schedule the first burst ``offset`` seconds from now."""
        self.sim.post(offset, self._burst, (), f"{self.source.flow}.on")

    def _burst(self) -> None:
        self.bursts += 1
        self.source.start()
        on = pareto_draw(self.rng, self.mean_on_s, self.alpha)
        self.sim.post(on, self._silence, (), f"{self.source.flow}.off")

    def _silence(self) -> None:
        self.source.stop()
        off = pareto_draw(self.rng, self.mean_off_s, self.alpha)
        self.sim.post(off, self._burst, (), f"{self.source.flow}.on")


class WebMiceWorkload:
    """Poisson arrivals of short-lived TCP transfers ("web mice").

    Mice arrive with exponential inter-arrival gaps at ``rate_per_s``;
    each transfers a Pareto-distributed number of packets (clamped to
    ``max_pkts`` so one elephant-in-mouse-clothing cannot dominate a
    short scenario) between a drawn (src, dst) host pair and then
    finishes.  ``arrivals`` stops once the simulator passes ``stop_at``.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        hosts: List[str],
        source: str,
        rate_per_s: float,
        mean_pkts: int,
        alpha: float,
        max_pkts: int,
        rng: random.Random,
        stop_at: float,
        config: Optional[TcpConfig] = None,
    ) -> None:
        if len(hosts) < 1:
            raise ConfigurationError("web mice need at least one host")
        self.sim = sim
        self.net = net
        self.hosts = list(hosts)
        self.source = source
        self.rate_per_s = rate_per_s
        self.mean_pkts = mean_pkts
        self.alpha = alpha
        self.max_pkts = max_pkts
        self.rng = rng
        self.stop_at = stop_at
        self.config = config or TcpConfig()
        self.mice: List[TcpFlow] = []

    def start(self, offset: float = 0.0) -> None:
        """Schedule the first mouse arrival."""
        gap = self.rng.expovariate(self.rate_per_s)
        self.sim.post(offset + gap, self._arrive, (), "mice.arrival")

    def _arrive(self) -> None:
        if self.sim.now >= self.stop_at:
            return
        index = len(self.mice)
        # a mouse downloads *from* the content source to a drawn host,
        # sharing tree links with the multicast session
        dst = self.rng.choice(self.hosts)
        size = int(round(pareto_draw(self.rng, float(self.mean_pkts), self.alpha)))
        size = max(1, min(size, self.max_pkts))
        mouse = TcpFlow(
            self.sim, self.net, f"mice.{index}", self.source, dst,
            config=self.config, limit=size,
        )
        mouse.start()
        self.mice.append(mouse)
        gap = self.rng.expovariate(self.rate_per_s)
        self.sim.post(gap, self._arrive, (), "mice.arrival")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate mouse counts for the scenario report."""
        finished = sum(1 for m in self.mice if m.sender.finished)
        return {
            "mice_started": len(self.mice),
            "mice_finished": finished,
            "mice_pkts_sent": sum(m.sender.stats()["packets_sent"] for m in self.mice),
        }


@dataclass
class PlacedTraffic:
    """Instantiated background traffic, returned by :func:`place_traffic`."""

    tcp_flows: List[TcpFlow]
    #: (flow id, dst host) for each long-lived TCP competitor
    tcp_placements: List[Tuple[str, str]]
    pareto_sources: List[ParetoOnOffSource]
    mice: Optional[WebMiceWorkload]


def place_traffic(
    sim: Simulator,
    net: Network,
    spec: BackgroundTraffic,
    hosts: List[str],
    source: str,
    duration: float,
    rng: random.Random,
    tcp_config: Optional[TcpConfig] = None,
    packet_sizes: Optional[PacketSizeMix] = None,
) -> PlacedTraffic:
    """Instantiate ``spec`` on the generated topology and start it.

    Long-lived TCP flows get distinct destination hosts (drawn without
    replacement, cycling if there are more flows than hosts); Pareto
    pumps and mice draw hosts freely.  Start offsets are tiny random
    phases so flows do not slow-start in lockstep.

    With a :class:`PacketSizeMix`, every source additionally draws its
    packet size from the weighted classes.  The extra draws happen ONLY
    when a mix is configured, so mix-less scenarios consume the exact
    RNG-stream sequence they always have (same-seed byte identity).
    """
    spec.validate()
    if not hosts:
        raise ConfigurationError("cannot place traffic: topology has no hosts")
    tcp_config = tcp_config or TcpConfig()
    if packet_sizes is not None:
        packet_sizes.validate()

    def sized_config() -> TcpConfig:
        if packet_sizes is None:
            return tcp_config
        return dataclasses.replace(tcp_config,
                                   packet_size=packet_sizes.draw(rng))

    flows: List[TcpFlow] = []
    placements: List[Tuple[str, str]] = []
    pool = list(hosts)
    for index in range(spec.tcp_flows):
        if not pool:
            pool = list(hosts)
        dst = pool.pop(rng.randrange(len(pool)))
        flow_id = f"bg.tcp.{index}"
        flow = TcpFlow(sim, net, flow_id, source, dst, config=sized_config())
        flow.start(offset=rng.uniform(0.0, 0.5))
        flows.append(flow)
        placements.append((flow_id, dst))

    pumps: List[ParetoOnOffSource] = []
    for index in range(spec.pareto_sources):
        src = rng.choice(hosts)
        dst = rng.choice([h for h in hosts if h != src] or [source])
        pump = ParetoOnOffSource(
            sim, net, f"bg.pareto.{index}", src, dst,
            rate_pps=spec.pareto_rate_pps,
            mean_on_s=spec.pareto_on_s,
            mean_off_s=spec.pareto_off_s,
            alpha=spec.pareto_alpha,
            rng=rng,
            packet_size=(packet_sizes.draw(rng) if packet_sizes is not None
                         else DEFAULT_PACKET_SIZE),
        )
        pump.start(offset=rng.uniform(0.0, 1.0))
        pumps.append(pump)

    mice: Optional[WebMiceWorkload] = None
    if spec.mice_rate_per_s > 0:
        mice = WebMiceWorkload(
            sim, net, hosts, source,
            rate_per_s=spec.mice_rate_per_s,
            mean_pkts=spec.mice_mean_pkts,
            alpha=spec.mice_alpha,
            max_pkts=spec.mice_max_pkts,
            rng=rng,
            stop_at=duration,
            config=sized_config(),
        )
        mice.start()

    return PlacedTraffic(
        tcp_flows=flows, tcp_placements=placements,
        pareto_sources=pumps, mice=mice,
    )
