#!/usr/bin/env python
"""The §4.3 slow-receiver option: eject the laggard, recover the session.

One receiver sits behind a 20 pkt/s trickle while the rest enjoy
400 pkt/s.  Reliable multicast must pace the whole session at the slowest
branch, so throughput collapses — until the LaggardDropPolicy notices the
receiver pinned a full window behind the leader and ejects it, at which
point the session springs back to the fast branches' rate.

Run:  python examples/slow_receiver.py
"""

from __future__ import annotations

from repro import RLASession, Simulator
from repro.net import GatewayFactory, Network
from repro.rla import LaggardDropPolicy
from repro.sim import PeriodicProcess
from repro.units import mbps, ms, pps_to_bps


def main() -> None:
    sim = Simulator(seed=21)
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("S", "G", mbps(100), ms(5),
                 queue_factory=GatewayFactory("droptail", sim, 100))
    net.add_link("G", "R1", pps_to_bps(400), ms(50))
    net.add_link("G", "R2", pps_to_bps(400), ms(50))
    net.add_link("G", "Rslow", pps_to_bps(20), ms(50))
    net.build_routes()

    session = RLASession(sim, net, "rla-0", "S", ["R1", "R2", "Rslow"])
    session.start()

    events = []
    policy = LaggardDropPolicy(
        sim, session.sender, check_interval=2.0, patience=10.0,
        on_drop=lambda rid: events.append((sim.now, rid)),
    )
    policy.start()

    # sample the reliable delivery rate: a PeriodicProcess and a closure
    interval = 4.0
    rates = []
    delivered = 0

    def sample() -> None:
        nonlocal delivered
        reach = session.sender.max_reach_all
        rates.append((sim.now, (reach - delivered) / interval))
        delivered = reach

    PeriodicProcess(sim, interval, sample, name="example.sample").start()
    sim.run(until=48.0)

    print("Reliable session throughput "
          "(watch the jump when the laggard is cut)")
    print("     t    pkt/s")
    for when, rate in rates:
        print(f"{when:5.0f}s  {rate:7.1f}")
    for when, rid in events:
        print(f"\n  t={when:5.1f}s: dropped {rid} "
              f"(gap behind leader exceeded half the average window)")
    print(f"  final receiver set: {sorted(session.sender.receivers)}")
    final = [rate for _, rate in rates[-5:]]
    print(f"  steady throughput after the drop: "
          f"~{sum(final)/len(final):.0f} pkt/s (was pinned at ~20)")


if __name__ == "__main__":
    main()
