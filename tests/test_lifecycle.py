"""The shared run lifecycle, exercised through each of its three backends.

The byte-identity of split runs is ``tests/checkpoint``'s job; here are
the refusals :mod:`repro.lifecycle` makes on behalf of every backend, and
the promise that a refused audited run leaves the process clean.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    TreeExperimentSpec,
    build_tree_world,
    run_tree_experiment,
)
from repro.experiments.sweeps import (
    build_restricted_world,
    run_symmetric_spec,
    symmetric_point,
)
from repro.lifecycle import advance_world, run_world
from repro.net import packet
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.runner import build_scenario_world
from repro.topology.cases import TREE_CASES

DURATION, WARMUP = 2.0, 1.0
END = WARMUP + DURATION


def _tree(audited):
    spec = TreeExperimentSpec(case=TREE_CASES[1], duration=DURATION,
                              warmup=WARMUP, audited=audited)
    return build_tree_world, spec, lambda: run_tree_experiment(spec)


def _scenario(audited):
    spec = get_scenario("tree-churn", duration=DURATION, warmup=WARMUP,
                        audited=audited)
    return build_scenario_world, spec, lambda: run_scenario(spec)


def _sweep(audited):
    params = dict(n_receivers=2, share_pps=100.0, buffer_pkts=20,
                  duration=DURATION, warmup=WARMUP, seed=1,
                  gateway="droptail", audited=audited)
    return (build_restricted_world, symmetric_point(**params),
            lambda: run_symmetric_spec(symmetric_point(**params)))


BACKENDS = pytest.mark.parametrize("backend", [_tree, _scenario, _sweep],
                                   ids=["tree", "scenario", "sweep"])


@BACKENDS
def test_advancing_past_the_end_is_refused(backend):
    build, spec, _ = backend(audited=False)
    world = build(spec)
    assert world.end_time == END
    with pytest.raises(ConfigurationError,
                       match=r"cannot advance to t=3\.5: run ends at t=3\.0"):
        advance_world(world, END + 0.5)
    assert world.sim.now == 0.0 and not world.marked


@BACKENDS
@pytest.mark.parametrize("at", [-0.5, END, END + 2.0])
def test_checkpoint_time_outside_the_run_is_refused(backend, at):
    build, spec, _ = backend(audited=False)
    with pytest.raises(ConfigurationError,
                       match=rf"checkpoint time {at} outside \[0, 3\.0\)"):
        run_world(build(spec), checkpoint_at=at)


@BACKENDS
def test_refused_audited_run_releases_the_creation_hook(backend):
    """One audited world per process: a refusal must not leave it armed."""
    build, spec, run = backend(audited=True)
    world = build(spec)
    assert packet._creation_hook is not None
    with pytest.raises(ConfigurationError, match="checkpoint time"):
        run_world(world, checkpoint_at=END)
    assert packet._creation_hook is None
    report = run()  # a second audited world builds and runs clean
    stats = getattr(report, "stats", None) or report["sim_stats"]
    assert stats["violations"] == 0 and stats["audit_checks"] > 0
    assert packet._creation_hook is None
