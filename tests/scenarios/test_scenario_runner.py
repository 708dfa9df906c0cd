"""Scenario runner: acceptance churn run, worker determinism, catalog."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.lifecycle import run_many, run_spec
from repro.runtime import ResultCache
from repro.runtime.spec import code_version
from repro.scenarios import (
    ScenarioSpec,
    WaxmanTopology,
    format_catalog,
    format_scenarios,
    get_scenario,
    run_scenario,
    scenario_names,
)


def _short(name, **overrides):
    overrides.setdefault("duration", 5.0)
    overrides.setdefault("warmup", 2.0)
    return get_scenario(name, **overrides)


# ----------------------------------------------------------------------
# the acceptance scenario: churn + mice over a generated Waxman graph
# ----------------------------------------------------------------------
def test_audited_churn_scenario_is_clean():
    row = run_scenario(_short("waxman-churn", duration=8.0, warmup=3.0,
                              audited=True))
    assert row["sim_stats"]["violations"] == 0
    assert row["sim_stats"]["audit_checks"] > 0
    assert row["joins"] > 0 and row["leaves"] > 0
    assert row["churn_applied"] == row["joins"] + row["leaves"]
    assert row["rla_pps"] > 0
    assert 0.0 < row["jain"] <= 1.0
    assert row["ratio"] > 0
    assert row["mice_started"] > 0


def test_scenario_rows_are_json_serializable():
    row = run_scenario(_short("waxman-steady"))
    assert json.loads(json.dumps(row)) == row


# ----------------------------------------------------------------------
# determinism: serial == parallel, cache digests stable across workers
# ----------------------------------------------------------------------
def test_same_spec_same_row():
    spec = _short("waxman-churn")
    assert run_scenario(spec) == run_scenario(spec)


def test_seed_changes_row():
    base = _short("waxman-steady")
    assert run_scenario(base) != run_scenario(base.replace(seed=2))


def test_workers_and_cache_reproduce_serial_rows(tmp_path):
    specs = [_short("waxman-churn"), _short("waxman-steady")]
    serial = run_many(specs)

    cache = ResultCache(str(tmp_path / "cache"))
    first: list = []
    parallel = run_many(specs, workers=2, cache=cache, outcomes=first)
    assert parallel == serial
    assert all(not outcome.cached for outcome in first)

    # replay from cache with a different worker count: identical rows,
    # identical content digests, zero new simulation
    second: list = []
    replay = run_many(specs, workers=1, cache=cache, outcomes=second)
    assert replay == serial
    assert all(outcome.cached for outcome in second)
    code = code_version()
    digests_first = [outcome.spec.key(code) for outcome in first]
    digests_second = [outcome.spec.key(code) for outcome in second]
    assert digests_first == digests_second


def test_entrypoint_matches_direct_call():
    spec = _short("waxman-steady")
    assert run_spec({"spec": spec}) == run_scenario(spec)


# ----------------------------------------------------------------------
# spec validation and catalog
# ----------------------------------------------------------------------
def test_receivers_beyond_hosts_rejected():
    spec = ScenarioSpec(name="tiny", topology=WaxmanTopology(n=5),
                        receivers=50, duration=2.0, warmup=1.0)
    with pytest.raises(ConfigurationError):
        run_scenario(spec)


@pytest.mark.parametrize("bad", [
    dict(name=""),
    dict(name="x", duration=0.0),
    dict(name="x", warmup=-1.0),
    dict(name="x", gateway="fifo"),
    dict(name="x", churn=None, receivers=0),
])
def test_invalid_scenario_specs_rejected(bad):
    with pytest.raises(ConfigurationError):
        ScenarioSpec(**bad).validate()


def test_catalog_names_resolve_and_validate():
    names = scenario_names()
    assert "waxman-churn" in names
    for name in names:
        spec = get_scenario(name)
        assert spec.name == name
        spec.validate()


def test_get_scenario_applies_overrides():
    spec = get_scenario("waxman-churn", seed=9, gateway="red", audited=True)
    assert spec.seed == 9
    assert spec.gateway == "red"
    assert spec.audited


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigurationError):
        get_scenario("no-such-scenario")


def test_format_catalog_lists_every_entry():
    listing = format_catalog()
    for name in scenario_names():
        assert name in listing


def test_format_scenarios_renders_rows():
    row = run_scenario(_short("waxman-steady"))
    table = format_scenarios([row])
    assert "waxman-steady" in table
    assert "jain" in table
    # the unaudited row renders a dash-free numeric jain and a viol dash
    assert table.strip().endswith("-")
