"""A run is its spec: ``run_many`` over mixed spec types, one pool adapter.

Every runnable spec names its runner, whether it can checkpoint and its
metrics label; :func:`repro.lifecycle.run_many` needs nothing else.  Here:
one call over all six kinds of spec, serial and through the pool; the
refusal of a batch that cannot checkpoint; and ``fluid crossval`` going
through the same hop (cold, warm, and equal to the serial tables).
"""

import inspect
import pickle

import pytest

import repro.runtime
from repro import cli
from repro.errors import ConfigurationError
from repro.experiments.population import population_spec
from repro.experiments.runner import TreeExperimentSpec, run_tree_experiment
from repro.experiments.sweeps import (
    SymmetricFluidSpec,
    run_symmetric_spec,
    symmetric_point,
)
from repro.fluid.adapters import run_symmetric_fluid_spec
from repro.fluid.crossval import CrossvalCase, run_packet_case
from repro.fluid.runner import run_fluid
from repro.lifecycle import SPEC_ENTRYPOINT, run_many
from repro.runtime import ResultCache
from repro.scenarios import get_scenario, run_scenario
from repro.topology.cases import TREE_CASES

SHORT = dict(duration=2.0, warmup=1.0)
POINT = dict(n_receivers=2, share_pps=100.0, buffer_pkts=20, seed=1,
             gateway="droptail", **SHORT)

#: (spec, the function that runs it alone, its --metrics label)
MIXED = [
    (TreeExperimentSpec(case=TREE_CASES[3], **SHORT), run_tree_experiment,
     "case3/droptail/seed1"),
    (get_scenario("tree-churn", **SHORT), run_scenario,
     "scenario tree-churn seed=1 (droptail)"),
    (symmetric_point(**POINT), run_symmetric_spec,
     "sweep n_receivers=2 (droptail)"),
    (SymmetricFluidSpec(symmetric_point(**POINT, knob="buffer_pkts")),
     run_symmetric_fluid_spec,
     "sweep buffer_pkts=20 (droptail)"),
    (population_spec(1000, **SHORT), run_fluid,
     "fluid population red n=1000 n=1000+1000"),
    (CrossvalCase("tiny", "dumbbell", 4, 2, "red", **SHORT), run_packet_case,
     "crossval tiny"),
]
SPECS = [spec for spec, _, _ in MIXED]


@pytest.fixture(scope="module")
def alone():
    """Each spec's report pickle from running that spec by itself."""
    return [pickle.dumps(run(spec)) for spec, run, _ in MIXED]


def test_signature_is_the_spec_list_and_the_runtime_options():
    assert list(inspect.signature(run_many).parameters) == [
        "specs", "workers", "cache", "outcomes", "checkpoint_at",
        "checkpoint_dir"]


def test_mixed_batch_serial_equals_each_spec_alone(alone, monkeypatch):
    monkeypatch.setattr(repro.runtime, "run_specs", None)  # must not be used
    assert [pickle.dumps(r) for r in run_many(SPECS)] == alone


def test_mixed_batch_is_one_pool_batch_equal_to_each_spec_alone(
        alone, monkeypatch):
    batches = []
    run_specs = repro.runtime.run_specs

    def counting(specs, **options):
        batches.append(specs)
        return run_specs(specs, **options)

    monkeypatch.setattr(repro.runtime, "run_specs", counting)
    outcomes = []
    results = run_many(SPECS, workers=2, outcomes=outcomes)
    assert [pickle.dumps(r) for r in results] == alone
    (batch,) = batches  # six spec types, one run_specs call
    assert {job.entrypoint for job in batch} == {SPEC_ENTRYPOINT}
    assert ([outcome.metrics.label for outcome in outcomes]
            == [label for _, _, label in MIXED])


def test_mixed_batch_replays_from_one_cache(alone, tmp_path):
    cache = ResultCache(tmp_path)
    run_many(SPECS, workers=1, cache=cache)
    outcomes = []
    replay = run_many(SPECS, workers=1, cache=cache, outcomes=outcomes)
    assert all(outcome.cached for outcome in outcomes)
    assert [pickle.dumps(r) for r in replay] == alone


# ----------------------------------------------------------------------
# --checkpoint-at over a batch holding a spec that cannot checkpoint
# ----------------------------------------------------------------------
def test_checkpoint_batch_with_a_fluid_spec_is_refused_before_any_run(
        tmp_path, monkeypatch, capsys):
    import repro.scenarios
    import repro.scenarios.runner

    fluid = population_spec(1000, **SHORT)
    catalog = repro.scenarios.get_scenario
    monkeypatch.setattr(
        repro.scenarios, "get_scenario",
        lambda name, **kw: fluid if name == "a-fluid-spec"
        else catalog(name, **kw))

    def no_build(spec):
        raise AssertionError("simulated before the batch was refused")

    monkeypatch.setattr(repro.scenarios.runner, "build_scenario_world",
                        no_build)
    code = cli.main(["scenarios", "run", "tree-churn", "a-fluid-spec",
                     "--checkpoint-at", "2", "--checkpoint-dir",
                     str(tmp_path), "--duration", "2", "--warmup", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: fluid population red n=1000 n=1000+1000: runner "
        "'repro.fluid.runner:run_fluid' does not support mid-run "
        "checkpoints: it takes no checkpoint_at/checkpoint_path\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("index", [2, 3, 4, 5],
                         ids=["sweep", "fluid-sweep", "fluid", "crossval"])
def test_specs_that_cannot_checkpoint_say_so(index, tmp_path):
    with pytest.raises(ConfigurationError, match="mid-run checkpoints"):
        run_many([SPECS[0], SPECS[index]], checkpoint_at=1.5,
                 checkpoint_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())


# ----------------------------------------------------------------------
# fluid crossval goes through run_many
# ----------------------------------------------------------------------
def test_crossval_cli_pool_and_cache_print_the_serial_tables(
        tmp_path, monkeypatch, capsys):
    import repro.fluid.crossval

    argv = ["fluid", "crossval", "--cases=-10-"]
    pooled = [*argv, "--workers", "2", "--cache", str(tmp_path)]

    def stdout_of(args):
        assert cli.main(args) == 0
        return capsys.readouterr().out

    serial = stdout_of(argv)
    assert serial.count("== ") == 2
    assert stdout_of(pooled) == serial
    assert len(list(tmp_path.glob("*.pkl"))) == 2

    def no_packet_run(case):
        raise AssertionError(f"{case.name} was not served from the cache")

    monkeypatch.setattr(repro.fluid.crossval, "run_packet_case",
                        no_packet_run)
    assert stdout_of(pooled) == serial
