"""Experiment E2 — figure 5: density plot of (cwnd1, cwnd2).

The paper's figure comes from a packet-level NS2 run (footnote 11): two
RLA sessions with 27 receivers each on a figure 1 topology, one TCP per
branch, each path's delay-bandwidth product 60 packets shared by the 3
sessions — so each session should average cwnd ~= 20 and the density mass
should sit around (20, 20).

We provide both levels:

* :func:`run_particle_density` — the §4.4 Markov chain (fast, what the
  paper's *model* predicts);
* :func:`run_packet_density` — the packet-level reproduction: 2 RLA
  sessions + TCP on the restricted topology, sampling both senders'
  windows periodically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from ..models.particle import ParticleModel, ParticleTrace, occupancy_grid
from ..rla.config import RLAConfig
from ..rla.session import RLASession
from ..sim.engine import Simulator
from ..sim.process import PeriodicProcess
from ..tcp.config import TcpConfig
from ..tcp.flow import TcpFlow
from ..tcp.sender import phase_jitter
from ..topology.restricted import ACCESS_DELAY, RestrictedSpec, build_restricted
from ..units import ms, pps_to_bps

if TYPE_CHECKING:  # numpy loads only when a caller asks for an array
    import numpy as np

PAPER_N = 27
#: Delay-bandwidth product of each path, shared by 2 RLA + 1 TCP sessions.
PAPER_PIPE_PER_SESSION = 20.0
#: One-way delay of each branch of the packet run.
BRANCH_DELAY = ms(45)
#: Seconds between two (cwnd1, cwnd2) samples of the packet run.
SAMPLE_INTERVAL = 0.1


def run_particle_density(steps: int = 200_000, seed: int = 1) -> ParticleTrace:
    """The §4.4 model's density (figure 5 as the *model* predicts it): the
    paper's 27 receivers, two RLA sessions' share of each pipe."""
    model = ParticleModel.uniform(PAPER_N, 2 * PAPER_PIPE_PER_SESSION)
    return model.simulate(steps=steps, seed=seed)


@dataclass
class PacketDensityResult:
    """Packet-level density measurement for two RLA sessions."""

    counts: Dict[Tuple[int, int], int]
    mean_w1: float
    mean_w2: float
    samples: int

    def density(self, w_max: int) -> "np.ndarray":
        """Occupancy histogram over ``[0, w_max]^2``."""
        return occupancy_grid(self.counts, w_max)


def run_packet_density(
    n_receivers: int = PAPER_N,
    duration: float = 300.0,
    warmup: float = 20.0,
    seed: int = 1,
) -> PacketDensityResult:
    """Packet-level figure 5: sample (cwnd1, cwnd2) of two RLA sessions
    every :data:`SAMPLE_INTERVAL` seconds.

    Per footnote 11: each branch's pipe is 60 packets for 3 sessions
    (2 RLA + 1 TCP).  With one-way branch delay ``d`` (:data:`BRANCH_DELAY`)
    and access delay 5 ms, RTT ~= 2(d + 5ms); capacity is set to 60 / RTT
    pkt/s.
    """
    rtt = 2.0 * (BRANCH_DELAY + ACCESS_DELAY)
    mu_pps = 60.0 / rtt
    spec = RestrictedSpec(
        mu_pps=[mu_pps] * n_receivers,
        branch_delay=BRANCH_DELAY,
        gateway="droptail",
    )
    sim = Simulator(seed=seed)
    net, receivers = build_restricted(sim, spec)
    jitter = phase_jitter(spec.gateway, pps_to_bps(mu_pps))
    start_rng = sim.rng.stream("fig5.start")
    for index, receiver in enumerate(receivers):
        flow = TcpFlow(sim, net, f"tcp-{index}", "S", receiver,
                       config=TcpConfig(phase_jitter=jitter))
        flow.start(start_rng.uniform(0.0, 1.0))
    config = RLAConfig(phase_jitter=jitter)
    sessions = [
        RLASession(sim, net, f"rla-{k}", "S", receivers, config=config)
        for k in range(2)
    ]
    for session in sessions:
        session.start(start_rng.uniform(0.0, 1.0))

    counts: Dict[Tuple[int, int], int] = {}
    sums = [0.0, 0.0]
    samples = [0]

    def sample() -> None:
        w1 = sessions[0].sender.cwnd
        w2 = sessions[1].sender.cwnd
        cell = (int(round(w1)), int(round(w2)))
        counts[cell] = counts.get(cell, 0) + 1
        sums[0] += w1
        sums[1] += w2
        samples[0] += 1

    sampler = PeriodicProcess(sim, SAMPLE_INTERVAL, sample, name="fig5.sample",
                              start_offset=warmup)
    sampler.start()
    sim.run(until=warmup + duration)
    total = max(samples[0], 1)
    return PacketDensityResult(
        counts=counts, mean_w1=sums[0] / total, mean_w2=sums[1] / total,
        samples=samples[0],
    )
