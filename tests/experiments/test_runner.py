"""The tree-experiment runner (short smoke runs shared by several tests)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    TreeExperimentResult,
    TreeExperimentSpec,
    build_tree_world,
    run_tree_experiment,
)
from repro.topology.cases import RTT_CASES, TREE_CASES
from repro.units import transmission_time, pps_to_bps


@pytest.fixture(scope="module")
def case5_result():
    """One short case-5 run reused by all assertions in this module."""
    spec = TreeExperimentSpec(case=TREE_CASES[5], duration=8.0, warmup=4.0,
                              seed=3)
    return run_tree_experiment(spec)


def test_result_shape(case5_result):
    result = case5_result
    assert isinstance(result, TreeExperimentResult)
    assert len(result.tcp) == 27
    assert len(result.rla) == 1
    assert len(result.receivers) == 27


def test_traffic_flows(case5_result):
    rla = case5_result.rla[0]
    assert rla["packets_sent"] > 0
    assert all(rep["packets_sent"] > 0 for rep in case5_result.tcp.values())


def test_tiers_match_case5(case5_result):
    assert len(case5_result.tiers["more"]) == 9
    assert len(case5_result.tiers["less"]) == 18


def test_wtcp_btcp_ordering(case5_result):
    assert (case5_result.wtcp["throughput_pps"]
            <= case5_result.btcp["throughput_pps"])


def test_tier_accessors(case5_result):
    more_cuts = case5_result.tcp_cuts_by_tier("more")
    assert len(more_cuts) == 9
    signals = case5_result.rla_signals_by_tier("more")
    assert len(signals) == 9


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        TreeExperimentSpec(case=TREE_CASES[1], gateway="fifo").validate()
    with pytest.raises(ConfigurationError):
        TreeExperimentSpec(case=TREE_CASES[1], duration=0).validate()
    with pytest.raises(ConfigurationError):
        TreeExperimentSpec(case=TREE_CASES[1], rla_sessions=0).validate()


def _configs(spec):
    """The TCP and RLA configs a built (never run) world hands its flows."""
    world = build_tree_world(spec)
    return ([flow.sender.config for flow in world.tcp_flows.values()],
            [session.sender.config for session in world.sessions])


def test_jitter_resolution():
    # §3.1: one service time of the slowest bottleneck on drop-tail
    # (case 3: 200 pkt/s leaf links), none on RED
    tcp, rla = _configs(TreeExperimentSpec(case=TREE_CASES[3]))
    service = transmission_time(1000, pps_to_bps(200))
    assert [c.phase_jitter for c in tcp + rla] == [pytest.approx(service)] * 28
    tcp, rla = _configs(TreeExperimentSpec(case=TREE_CASES[3], gateway="red"))
    assert [c.phase_jitter for c in tcp + rla] == [None] * 28


def test_generalized_resolution():
    # §5.3: RTT-scaled listening exactly on figure 10's mixed-RTT cases
    for registry, generalized in ((TREE_CASES, False), (RTT_CASES, True)):
        for case in registry.values():
            spec = TreeExperimentSpec(case=case, rla_sessions=2)
            assert spec.generalized is generalized
            _, rla = _configs(spec)
            assert [c.rtt_scaled_pthresh for c in rla] == [generalized] * 2
