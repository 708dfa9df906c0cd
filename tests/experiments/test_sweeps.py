"""Parameter-sweep harness (short smoke runs)."""

import math
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.sweeps import (
    RestrictedRunSpec,
    SymmetricFluidSpec,
    format_sweep,
    run_symmetric_spec,
    sweep,
)
from repro.lifecycle import run_many
from repro.models.fairness import fairness_columns
from repro.rla.config import RLAConfig
from repro.tcp.config import TcpConfig
from repro.tcp.sender import phase_jitter
from repro.topology.restricted import RestrictedSpec
from repro.units import pps_to_bps

#: The η ablation's unequal point: one tight branch, five mild ones.
UNEQUAL = RestrictedSpec(mu_pps=(100, 300, 300, 300, 300, 300))


@pytest.fixture(scope="module")
def tiny_sweep():
    return sweep("n_receivers", (2, 3), duration=10.0, warmup=5.0, seed=2)


def test_sweep_rows_have_expected_keys(tiny_sweep):
    for row in tiny_sweep:
        for key in ("n_receivers", "rla_pps", "wtcp_pps", "ratio", "fair",
                    "lower", "upper", "num_trouble"):
            assert key in row


def test_sweep_counts_match(tiny_sweep):
    assert [row["n_receivers"] for row in tiny_sweep] == [2, 3]


def test_sweep_bounds_widen_with_n(tiny_sweep):
    assert tiny_sweep[0]["upper"] <= tiny_sweep[1]["upper"]


def test_sweep_traffic_flows(tiny_sweep):
    for row in tiny_sweep:
        assert row["rla_pps"] > 0
        assert row["wtcp_pps"] > 0


def test_buffer_sweep_smoke():
    rows = sweep("buffer_pkts", (10, 20), n_receivers=2, duration=8.0,
                 warmup=4.0, seed=2)
    assert [row["buffer_pkts"] for row in rows] == [10, 20]


def test_share_sweep_smoke():
    rows = sweep("share_pps", (100.0,), n_receivers=2, duration=8.0,
                 warmup=4.0, seed=2)
    assert rows[0]["share_pps"] == 100.0


def test_unknown_knob_is_refused_before_any_run():
    with pytest.raises(ConfigurationError, match="unknown sweep knob"):
        sweep("seed", (1, 2), duration=2.0, warmup=1.0)


def test_format_sweep(tiny_sweep):
    text = format_sweep(tiny_sweep, "n_receivers")
    assert "ratio" in text
    assert len(text.splitlines()) == 3


def test_zero_wtcp_row_reads_n_a():
    """A point whose slowest TCP never got going has no verdict: the row
    keeps its bounds, and the table prints n/a, never nan/inf/NO."""
    row = {"n_receivers": 128, "rla_pps": 77.0, "wtcp_pps": 0.0,
           **fairness_columns(77.0, 0.0, 128, "droptail")}
    assert row["fair"] is None and math.isnan(row["ratio"])
    assert (row["lower"], row["upper"]) == (0.25, 256.0)
    line = format_sweep([row], "n_receivers").splitlines()[1]
    assert line.split() == ["128", "77.0", "0.0", "n/a", "(0.25,", "256.00)",
                            "n/a"]


def test_starved_rla_row_reads_no():
    """A starved RLA against a live TCP is what the lower bound catches:
    ratio 0, fair False, and the table prints NO."""
    row = {"n_receivers": 4, "rla_pps": 0.0, "wtcp_pps": 90.0,
           **fairness_columns(0.0, 90.0, 4, "droptail")}
    assert row["fair"] is False and row["ratio"] == 0.0
    line = format_sweep([row], "n_receivers").splitlines()[1]
    assert line.split() == ["4", "0.0", "90.0", "0.00", "(0.25,", "8.00)",
                            "NO"]


def _unequal(eta, audited=False):
    """The η bench's run of :data:`UNEQUAL` at a short horizon."""
    jitter = phase_jitter("droptail", pps_to_bps(100))
    return RestrictedRunSpec(UNEQUAL, duration=3.0, warmup=1.0, seed=1,
                             audited=audited,
                             rla=RLAConfig(eta=eta, phase_jitter=jitter))


def test_unequal_branches_run_audited_with_no_violation():
    row = run_symmetric_spec(_unequal(20.0, audited=True))
    assert row["sim_stats"]["violations"] == 0
    assert row["sim_stats"]["audit_checks"] > 0
    assert (row["n_receivers"], row["share_pps"]) == (6, 50.0)
    assert len(row["tcp"]) == 6
    assert row["rla"]["throughput_pps"] == row["rla_pps"] > 0


def test_unequal_branches_fan_out_like_the_serial_loop():
    specs = [_unequal(eta) for eta in (2.0, 20.0, 100.0)]
    serial = [pickle.dumps(run_symmetric_spec(spec)) for spec in specs]
    assert [pickle.dumps(row) for row in run_many(specs, workers=2)] == serial


def test_eta_arms_have_distinct_labels():
    """The η bench's three arms differ only in their RLA config; each
    ``--metrics`` label names it, and the unequal branches."""
    labels = [_unequal(eta).run_label() for eta in (2.0, 20.0, 100.0)]
    assert len(set(labels)) == 3
    assert all(label.startswith("sweep n_receivers=6 (droptail) "
                                "mu_pps=100/300/300/300/300/300 rla(")
               for label in labels)


@pytest.mark.parametrize("point", [
    RestrictedRunSpec(RestrictedSpec([200] * 3, gateway="red", ecn=True),
                      duration=3.0, warmup=1.0, seed=1),
    RestrictedRunSpec(RestrictedSpec([200] * 3), duration=3.0, warmup=1.0,
                      seed=1, tcp=TcpConfig()),
    _unequal(20.0),
    RestrictedRunSpec(RestrictedSpec([200] * 3), duration=3.0, warmup=1.0,
                      seed=1, audited=True),
], ids=["ecn", "given-tcp", "given-rla", "audited"])
def test_fluid_twin_refuses_what_it_cannot_model(point):
    """A point the fluid model would integrate as a different system is
    one ConfigurationError, raised before anything runs."""
    with pytest.raises(ConfigurationError, match="fluid"):
        run_many([SymmetricFluidSpec(point)])
