"""RunSpec identity: canonical form and content keys."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import TreeExperimentSpec, tree_runspec
from repro.fluid import BottleneckSpec, FluidSpec, TcpCohortSpec, run_fluid
from repro.lifecycle import SPEC_ENTRYPOINT, runspec
from repro.runtime import RunSpec, code_version
from repro.topology.cases import TREE_CASES

ECHO = "repro.runtime._testing:echo"


def test_canonical_is_order_free():
    a = RunSpec(ECHO, {"x": 1, "y": 2.0})
    b = RunSpec(ECHO, {"y": 2, "x": 1})
    assert a.canonical() == b.canonical()
    assert a == b
    assert hash(a) == hash(b)


def test_canonical_distinguishes_params_and_entrypoint():
    base = RunSpec(ECHO, {"x": 1})
    assert base != RunSpec(ECHO, {"x": 2})
    assert base != RunSpec("repro.runtime._testing:boom", {"x": 1})
    assert base.key() != RunSpec(ECHO, {"x": 2}).key()


def test_signed_zero_keeps_its_own_key():
    """``-0.0`` is integral like ``20.0``, but a run of it is not the run
    of ``0``: a fixed-loss fluid row reports ``loss_p`` back, so the two
    rows differ and must not share a cache entry."""
    def fixed(loss_p):
        return FluidSpec(
            name="fixed", duration=0.2, warmup=0.1,
            bottlenecks=(BottleneckSpec(capacity_pps=10_000.0,
                                        discipline="fixed", loss_p=loss_p),),
            tcp_cohorts=(TcpCohortSpec(3, 0.1),))

    losses = [run_fluid(fixed(loss_p))["mean_loss"] for loss_p in (0.0, -0.0)]
    assert [p.hex() for [p] in losses] == ["0x0.0p+0", "-0x0.0p+0"]
    assert runspec(fixed(0.0)).key() != runspec(fixed(-0.0)).key()
    assert RunSpec(ECHO, {"x": -0.0}) != RunSpec(ECHO, {"x": 0})
    # every other integral float still keys like its int
    assert RunSpec(ECHO, {"x": [0.0, 20.0, -3.0]}) == RunSpec(
        ECHO, {"x": [0, 20, -3]})


def test_key_mixes_code_version():
    spec = RunSpec(ECHO, {"x": 1})
    assert spec.key("codeA") != spec.key("codeB")
    assert spec.key(code_version()) == spec.key(code_version())


def test_label_does_not_change_identity():
    assert RunSpec(ECHO, {"x": 1}, label="a") == RunSpec(ECHO, {"x": 1}, label="b")


def test_entrypoint_must_have_colon():
    with pytest.raises(ConfigurationError):
        RunSpec("repro.runtime._testing.echo")


def test_resolve_and_describe():
    spec = RunSpec(ECHO, {"x": 1})
    assert spec.resolve()({"x": 1})["params"] == {"x": 1}
    assert "echo" in spec.describe()
    with pytest.raises(ConfigurationError):
        RunSpec("repro.runtime._testing:missing", {}).resolve()


def test_unserializable_param_rejected():
    with pytest.raises(ConfigurationError):
        RunSpec(ECHO, {"bad": object()}).canonical()


def test_tree_spec_canonicalizes_and_pickles():
    tree = TreeExperimentSpec(case=TREE_CASES[5], duration=8.0, warmup=4.0)
    spec = tree_runspec(tree)
    assert spec.entrypoint == SPEC_ENTRYPOINT
    # the nested dataclasses flatten deterministically ...
    assert spec.canonical() == tree_runspec(tree).canonical()
    # ... and a changed knob changes the identity
    other = TreeExperimentSpec(case=TREE_CASES[5], duration=9.0, warmup=4.0)
    assert spec.canonical() != tree_runspec(other).canonical()
    # specs must cross process boundaries intact
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_code_version_is_memoized_and_short():
    assert code_version() == code_version()
    assert len(code_version()) == 16
