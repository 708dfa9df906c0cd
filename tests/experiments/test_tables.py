"""Table rendering in the paper's layout."""

from repro.experiments.runner import TreeExperimentResult, TreeExperimentSpec
from repro.experiments.tables import (
    format_case_table,
    format_signals_table,
    render_grid,
)
from repro.topology.cases import TREE_CASES


def _fake_result(case_number=5):
    rla = {
        "throughput_pps": 224.6, "mean_cwnd": 53.7, "mean_rtt": 0.238,
        "congestion_signals": 11754, "window_cuts": 442, "forced_cuts": 0,
        "timeouts": 0, "packets_sent": 1, "rtx_multicast": 0,
        "rtx_unicast": 0, "num_trouble": 27, "elapsed": 2900.0,
        "signals_by_receiver": {f"R{i}": 1082 if i <= 9 else 112
                                for i in range(1, 28)},
    }
    tcp = {
        f"R{i}": {
            "throughput_pps": 74.5 + i, "mean_cwnd": 18.9, "mean_rtt": 0.238,
            "window_cuts": 899 - i, "timeouts": 0, "packets_sent": 1,
            "retransmits": 0, "elapsed": 2900.0,
        }
        for i in range(1, 28)
    }
    return TreeExperimentResult(
        spec=TreeExperimentSpec(case=TREE_CASES[case_number]),
        rla=[rla],
        tcp=tcp,
        tiers={"more": [f"R{i}" for i in range(1, 10)],
               "less": [f"R{i}" for i in range(10, 28)]},
        receivers=[f"R{i}" for i in range(1, 28)],
    )


def test_render_grid_aligns():
    text = render_grid(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert lines[0].startswith("a")


def test_case_table_contains_sections():
    table = format_case_table({5: [_fake_result()]})
    assert "RLA" in table and "WTCP" in table and "BTCP" in table
    assert "224.6" in table
    assert "case 5" in table


def test_case_table_with_paper_refs():
    from repro.experiments.paperdata import FIG7_DROPTAIL

    table = format_case_table({5: [_fake_result()]}, paper=FIG7_DROPTAIL)
    assert "[224.6]" in table
    assert "measured [paper]" in table


def test_wtcp_is_minimum():
    result = _fake_result()
    assert result.wtcp["throughput_pps"] == min(
        rep["throughput_pps"] for rep in result.tcp.values()
    )


def test_signals_table_tiers():
    table = format_signals_table({5: [_fake_result()]})
    assert "more congested" in table
    assert "less congested" in table
    assert "1082" in table


def test_signals_table_with_paper():
    from repro.experiments.paperdata import FIG8_SIGNALS

    table = format_signals_table({5: [_fake_result()]}, paper=FIG8_SIGNALS)
    assert "[1082]" in table


def test_signals_table_single_tier():
    result = _fake_result(case_number=1)
    result.tiers = {"more": result.receivers, "less": []}
    table = format_signals_table({1: [result]})
    assert "all links" in table
