"""RunSpec identity: canonical form, content keys, seed derivation."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import TreeExperimentSpec, tree_runspec
from repro.lifecycle import SPEC_ENTRYPOINT
from repro.runtime import RunSpec, code_version, derive_seed, replicate
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
    assert base.key() != base.with_params(x=2).key()


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


def test_derive_seed_stable_and_spread():
    assert derive_seed(1, "replica.1") == derive_seed(1, "replica.1")
    seeds = {derive_seed(1, f"replica.{i}") for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(1, "replica.1") != derive_seed(2, "replica.1")


def test_replicate_prefix_stable():
    spec = RunSpec(ECHO, {"seed": 7, "x": 1})
    five = replicate(spec, 5)
    three = replicate(spec, 3)
    assert five[:3] == three
    assert five[0].params["seed"] == 7  # replica 0 keeps the base seed
    assert len({s.params["seed"] for s in five}) == 5
    for replica in five:
        assert replica.params["x"] == 1


def test_replicate_validation():
    with pytest.raises(ConfigurationError):
        replicate(RunSpec(ECHO, {"seed": 1}), 0)
    with pytest.raises(ConfigurationError):
        replicate(RunSpec(ECHO, {"x": 1}), 2)


def test_code_version_is_memoized_and_short():
    assert code_version() == code_version()
    assert len(code_version()) == 16
