"""The AQM x heterogeneity matrix: grid construction, determinism,
checkpoint round-trips and per-cohort fairness columns."""

import pickle
import random

import pytest

from repro.checkpoint import resolve_entrypoint, restore
from repro.errors import ConfigurationError
from repro.net.network import GATEWAY_DISCIPLINES
from repro.scenarios import (
    PACKET_MIXES,
    RTT_SPREADS,
    GridSpec,
    PacketSizeMix,
    RttCohortTopology,
    ScenarioSpec,
    format_grid,
    grid_cell,
    grid_specs,
    run_scenario,
)
from repro.lifecycle import snapshot_world
from repro.scenarios.runner import build_scenario_world

#: Small-but-shape-preserving horizon for simulation-backed tests.
DURATION, WARMUP = 4.0, 1.0

NEW_DISCIPLINES = ("red-byte", "red-adaptive", "codel", "pie")


def _cell(gateway, **overrides):
    spec = grid_cell(gateway, "trimodal", "wide", ecn=False,
                     duration=DURATION, warmup=WARMUP)
    return spec.replace(**overrides) if overrides else spec


# ----------------------------------------------------------- grid shape
def test_full_grid_skips_droptail_ecn():
    specs = grid_specs(GridSpec())
    cells = len(GATEWAY_DISCIPLINES) * len(PACKET_MIXES) * len(RTT_SPREADS)
    assert len(specs) == 2 * cells - len(PACKET_MIXES) * len(RTT_SPREADS)
    assert not any(s.gateway == "droptail" and s.ecn for s in specs)
    # every discipline appears, every spec validates
    assert {s.gateway for s in specs} == set(GATEWAY_DISCIPLINES)
    for spec in specs:
        spec.validate()


def test_grid_axes_can_be_restricted():
    grid = GridSpec(disciplines=("codel",), mixes=("uniform",),
                    spreads=("wide",), ecn_modes=(False,))
    specs = grid_specs(grid)
    assert len(specs) == 1
    assert specs[0].gateway == "codel"
    assert specs[0].packet_sizes is None


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        grid_specs(GridSpec(disciplines=("fifo",)))
    with pytest.raises(ConfigurationError):
        grid_specs(GridSpec(mixes=("jumbo",)))
    with pytest.raises(ConfigurationError):
        grid_specs(GridSpec(spreads=("galactic",)))


def test_spec_rejects_droptail_ecn():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(name="bad", gateway="droptail", ecn=True).validate()


def test_packet_mix_draw_and_mean():
    mix = PacketSizeMix(mice_weight=1.0, bulk_weight=0.0, video_weight=0.0)
    rng = random.Random(1)
    assert {mix.draw(rng) for _ in range(10)} == {mix.mice_size}
    assert mix.mean_size == mix.mice_size
    with pytest.raises(ConfigurationError):
        PacketSizeMix(mice_weight=0.0, bulk_weight=0.0,
                      video_weight=0.0).validate()


def test_rtt_cohort_topology_validation():
    with pytest.raises(ConfigurationError):
        RttCohortTopology(fast_delay_ms=50.0, slow_delay_ms=10.0).validate()
    with pytest.raises(ConfigurationError):
        RttCohortTopology(fast_hosts=0).validate()


# ------------------------------------------------ rows, cohorts, determinism
@pytest.mark.parametrize("gateway", NEW_DISCIPLINES)
def test_new_disciplines_run_audited_and_deterministically(gateway):
    """Every new discipline: audited clean run, same-seed identical rows."""
    spec = _cell(gateway, audited=True)
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert pickle.dumps(first) == pickle.dumps(second)
    assert first["sim_stats"]["violations"] == 0
    # cohort columns present, one per RTT class, jain inside [1/n, 1]
    cohorts = first["cohorts"]
    assert set(cohorts) == {"fast", "slow"}
    for entry in cohorts.values():
        assert 0.0 < entry["jain"] <= 1.0
    reseeded = run_scenario(spec.replace(seed=spec.seed + 1))
    assert pickle.dumps(reseeded) != pickle.dumps(first)


@pytest.mark.parametrize("gateway", NEW_DISCIPLINES)
def test_new_disciplines_checkpoint_round_trip(gateway):
    """Snapshot mid-flight, restore, finish: byte-identical report rows."""
    spec = _cell(gateway)
    straight = pickle.dumps(run_scenario(spec))
    world = build_scenario_world(spec)
    try:
        snapshot = snapshot_world(world, at=2.0)
    finally:
        world.disarm()
    finish = resolve_entrypoint(snapshot.resume)
    assert pickle.dumps(finish(restore(snapshot))) == straight


def test_ecn_cells_mark_instead_of_dropping():
    spec = _cell("pie", ecn=True)
    row = run_scenario(spec)
    assert row["sim_stats"]["ecn_marks"] > 0


def test_legacy_row_keys_unchanged():
    """Byte-identity guard: legacy configs must not grow new row keys."""
    spec = ScenarioSpec(name="legacy", duration=DURATION, warmup=WARMUP)
    row = run_scenario(spec)
    assert "cohorts" not in row
    assert "evicted" not in row["sim_stats"]
    assert "ecn_marks" not in row["sim_stats"]


def test_format_grid_table():
    grid = GridSpec(disciplines=("codel",), mixes=("uniform",),
                    spreads=("wide",), ecn_modes=(False,),
                    duration=DURATION, warmup=WARMUP)
    specs = grid_specs(grid)
    rows = [run_scenario(spec) for spec in specs]
    table = format_grid(specs, rows)
    assert "codel" in table and "uniform" in table and "wide" in table
    assert "fastJ" in table and "slowB" in table
