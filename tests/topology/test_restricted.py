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
    with pytest.raises(TopologyError, match="buffer"):
        RestrictedSpec(mu_pps=[100], buffer_pkts=1).validate()
    with pytest.raises(TopologyError, match="ECN"):
        RestrictedSpec(mu_pps=[200], gateway="droptail", ecn=True).validate()


def _twin(spec):
    """The fluid twin of a short figure 1 run on ``spec``."""
    from repro.experiments.sweeps import RestrictedRunSpec
    from repro.fluid.adapters import restricted_fluid_spec

    return restricted_fluid_spec(
        RestrictedRunSpec(spec, duration=2.0, warmup=1.0, seed=1))


@pytest.mark.parametrize("spec", [
    RestrictedSpec(mu_pps=[200, 200]),
    RestrictedSpec(mu_pps=(100, 300, 300, 300, 300, 300)),
    RestrictedSpec(mu_pps=[200, 200], branch_delay=ms(5)),
    RestrictedSpec(mu_pps=[150, 250], gateway="red", buffer_pkts=40),
], ids=["equal", "unequal", "branch-delay-5ms", "red-unequal"])
def test_fluid_twin_has_the_packet_branches(spec):
    """Branch b of the twin is branch b of the packet network: its
    capacity, its buffer and gateway, and one TCP and one RLA cohort at
    the branch's round-trip propagation delay."""
    net, receivers = build_restricted(Simulator(), spec)
    twin = _twin(spec)
    assert tuple(bn.capacity_pps for bn in twin.bottlenecks) == tuple(
        spec.mu_pps)
    assert {(bn.buffer_pkts, bn.discipline) for bn in twin.bottlenecks} == {
        (spec.buffer_pkts, spec.gateway)}
    rtts = [2 * net.path_delay("S", receiver) for receiver in receivers]
    for cohorts in (twin.tcp_cohorts, twin.rla_cohorts):
        assert [cohort.bottleneck for cohort in cohorts] == list(
            range(len(receivers)))
        assert [cohort.rtt_s for cohort in cohorts] == pytest.approx(rtts)


@pytest.mark.parametrize("buffer", [2, 5, 10, 20, 40])
def test_red_thresholds_fit_the_buffer_and_the_fluid_twin(buffer):
    from repro.fluid.adapters import symmetric_fluid_spec
    from repro.net.red import REDQueue

    spec = RestrictedSpec(mu_pps=[200, 200], gateway="red", buffer_pkts=buffer)
    net, _ = build_restricted(Simulator(), spec)
    reds = [link.gateway for link in net.links.values()
            if isinstance(link.gateway, REDQueue)]
    assert len(reds) == 4  # both directions of both branches
    for gateway in reds:
        assert 0 < gateway.min_th < gateway.max_th <= gateway.capacity
    twin = symmetric_fluid_spec(2, 100.0, buffer, duration=2.0, warmup=1.0,
                                seed=1, gateway="red").bottlenecks[0]
    red = reds[0]
    assert ((twin.min_th, twin.max_th, twin.w_q, twin.max_p)
            == (red.min_th, red.max_th, red.w_q, red.max_p))
    if buffer == 20:
        assert (red.min_th, red.max_th) == (5.0, 15.0)  # the paper's RED
