"""The figure 1 restricted topology builder."""

import pytest

from repro.errors import TopologyError
from repro.sim.engine import Simulator
from repro.topology.restricted import RestrictedSpec, build_restricted
from repro.units import ms, pps_to_bps


def test_build_basic():
    sim = Simulator()
    spec = RestrictedSpec(mu_pps=[200, 400])
    net, receivers = build_restricted(sim, spec)
    assert receivers == ["R1", "R2"]
    assert net.link("G", "R1").bandwidth_bps == pytest.approx(pps_to_bps(200))
    assert net.link("G", "R2").bandwidth_bps == pytest.approx(pps_to_bps(400))


def test_equal_rtts():
    sim = Simulator()
    spec = RestrictedSpec(mu_pps=[200, 200, 200])
    net, receivers = build_restricted(sim, spec)
    delays = {net.path_delay("S", r) for r in receivers}
    assert len(delays) == 1  # the restricted topology's defining property


def test_red_variant():
    from repro.net.red import REDQueue

    sim = Simulator()
    spec = RestrictedSpec(mu_pps=[200], gateway="red")
    net, _ = build_restricted(sim, spec)
    assert isinstance(net.link("G", "R1").gateway, REDQueue)


def test_validation():
    with pytest.raises(TopologyError):
        RestrictedSpec(mu_pps=[]).validate()
    with pytest.raises(TopologyError):
        RestrictedSpec(mu_pps=[0]).validate()
    with pytest.raises(TopologyError):
        RestrictedSpec(mu_pps=[100, -5]).validate()
    with pytest.raises(TopologyError):
        RestrictedSpec(mu_pps=[100], gateway="fifo").validate()
