"""The §5 experiment cases and their capacity assignments."""

import pytest

from repro.errors import TopologyError
from repro.topology.cases import (
    RTT_CASES,
    TREE_CASES,
    TreeCase,
    case_bandwidths,
    case_receivers,
    congestion_tiers,
)
from repro.topology.tree import static_tree_info
from repro.units import pps_to_bps


@pytest.fixture(scope="module")
def info():
    return static_tree_info()


def test_five_cases_defined():
    assert set(TREE_CASES) == {1, 2, 3, 4, 5}
    assert TREE_CASES[1].congested_links == ("L1",)
    assert len(TREE_CASES[3].congested_links) == 27
    assert TREE_CASES[5].congested_links == ("L21",)


def test_case_capacities_give_100pps_share(info):
    # case 1: 27 TCPs + multicast cross L1 -> 2800 pkt/s
    bw = case_bandwidths(TREE_CASES[1], info)
    assert bw["L1"] == pytest.approx(pps_to_bps(2800))
    # case 3: each leaf link carries 1 TCP + multicast -> 200 pkt/s
    bw3 = case_bandwidths(TREE_CASES[3], info)
    assert all(v == pytest.approx(pps_to_bps(200)) for v in bw3.values())
    # case 5: 9 TCPs + multicast cross L21 -> 1000 pkt/s
    bw5 = case_bandwidths(TREE_CASES[5], info)
    assert bw5["L21"] == pytest.approx(pps_to_bps(1000))


def test_case2_capacities(info):
    bw = case_bandwidths(TREE_CASES[2], info)
    assert all(v == pytest.approx(pps_to_bps(400)) for v in bw.values())


def test_rtt_cases_use_extended_population(info):
    case = RTT_CASES[1]
    receivers = case_receivers(case, info)
    assert len(receivers) == 36
    bw = case_bandwidths(case, info)
    # TCPs run to leaves only: L21 carries 9 leaf TCPs + multicast
    assert bw["L21"] == pytest.approx(pps_to_bps(1000))


def test_rtt_case2_capacities(info):
    bw = case_bandwidths(RTT_CASES[2], info)
    # each L3 link: 3 leaf TCPs + multicast (the G3x member has no TCP)
    assert bw["L31"] == pytest.approx(pps_to_bps(400))


def test_congestion_tiers(info):
    case = TREE_CASES[4]  # L41..L45 congested
    tiers = congestion_tiers(case, info, info.leaves)
    assert tiers["more"] == [f"R{i}" for i in range(1, 6)]
    assert len(tiers["less"]) == 22


def test_congestion_tiers_all_congested(info):
    tiers = congestion_tiers(TREE_CASES[1], info, info.leaves)
    assert len(tiers["more"]) == 27
    assert tiers["less"] == []


def test_unknown_link_in_case_rejected():
    with pytest.raises(TopologyError):
        TreeCase("bad", ("L999",), "nope")


def test_unknown_population_rejected(info):
    case = TreeCase("odd", ("L1",), "x", receivers="martians")
    with pytest.raises(TopologyError):
        case_receivers(case, info)
