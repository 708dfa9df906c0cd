"""Exchangeable branches: integrated once, bit for bit like every branch.

``FluidModel.kernel``'s ``run`` integrates one representative per class
of exchangeable bottlenecks (same literals in every field but
``label``, same ordered cohort lists), which is exact only because
integration starts from a state equal across each class.  These tests
hold the reduced ``run`` to the frozen step-by-step integrator in
``reference.py`` on specs built to repeat and interleave branches, pin
the rule's edges (a label lumps; one ulp and a signed zero do not),
check that the reduction happens, and that ``integrate`` and the
equilibrium refuse a model of another spec.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from repro.errors import ConfigurationError
from repro.fluid import (
    BottleneckSpec,
    FluidModel,
    FluidSpec,
    RlaCohortSpec,
    TcpCohortSpec,
    integrate,
    reynier_check,
    solve_equilibrium,
    symmetric_fluid_spec,
)


def _same_as_reference(spec):
    assert (pickle.dumps(integrate(spec))
            == pickle.dumps(reference.integrate(spec)))


def _integrated(model):
    """The state locals the compiled ``run`` integrates."""
    return [name for name in model.kernel.__code__.co_varnames
            if re.fullmatch(r"s\d+", name)]


# ----------------------------------------------------------------------
# drawn specs: 2-6 bottlenecks of 1-2 kinds, cohorts shuffled
# ----------------------------------------------------------------------
rtts = st.floats(min_value=0.02, max_value=0.3)


@st.composite
def kinds(draw):
    """A bottleneck and the cohorts every bottleneck of this kind gets."""
    discipline = draw(st.sampled_from(("droptail", "red", "fixed")))
    capacity = draw(st.floats(min_value=50.0, max_value=5_000.0))
    buffer = draw(st.floats(min_value=5.0, max_value=200.0))
    if discipline == "fixed":
        bottleneck = BottleneckSpec(capacity_pps=capacity, discipline="fixed",
                                    loss_p=draw(st.floats(0.0, 0.2)))
    elif discipline == "droptail":
        bottleneck = BottleneckSpec(capacity_pps=capacity, buffer_pkts=buffer)
    else:
        min_th = buffer * draw(st.floats(min_value=0.05, max_value=0.5))
        bottleneck = BottleneckSpec(
            capacity_pps=capacity, buffer_pkts=buffer, discipline="red",
            min_th=min_th, max_th=min_th + (buffer - min_th) * 0.5,
            w_q=draw(st.floats(min_value=1e-4, max_value=0.02)))
    tcp = draw(st.lists(st.tuples(st.integers(1, 500), rtts), max_size=3))
    rla = draw(st.lists(st.tuples(st.integers(1, 8), rtts),
                        min_size=0 if tcp else 1, max_size=2))
    return bottleneck, tcp, rla


@st.composite
def repeated_specs(draw):
    pool = draw(st.lists(kinds(), min_size=1, max_size=2))
    layout = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6))
    bottlenecks, tcp, rla = [], [], []
    for b, (bottleneck, tcp_kind, rla_kind) in enumerate(layout):
        # every branch its own label: labels never split a class
        bottlenecks.append(dataclasses.replace(bottleneck,
                                               label=f"branch {b}"))
        tcp += [TcpCohortSpec(flows, rtt, b) for flows, rtt in tcp_kind]
        rla += [RlaCohortSpec(receivers, rtt, b)
                for receivers, rtt in rla_kind]
    return FluidSpec(
        name="repeated", bottlenecks=tuple(bottlenecks),
        tcp_cohorts=tuple(draw(st.permutations(tcp))),
        rla_cohorts=tuple(draw(st.permutations(rla))),
        duration=0.3, warmup=draw(st.sampled_from((0.0, 0.1))),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=repeated_specs())
def test_repeated_branches_integrate_like_reference(spec):
    _same_as_reference(spec)


# ----------------------------------------------------------------------
# the rule's edges
# ----------------------------------------------------------------------
def _pair(first, second):
    """Two bottlenecks, each with a TCP cohort and an RLA receiver."""
    return FluidSpec(
        name="pair", bottlenecks=(first, second),
        tcp_cohorts=(TcpCohortSpec(3, 0.1, 0), TcpCohortSpec(3, 0.1, 1)),
        rla_cohorts=(RlaCohortSpec(1, 0.1, 0), RlaCohortSpec(1, 0.1, 1)),
        duration=0.5, warmup=0.1,
    )


QUEUE = BottleneckSpec(capacity_pps=150.0, buffer_pkts=20.0)
FIXED = BottleneckSpec(capacity_pps=10_000.0, discipline="fixed", loss_p=0.0)


@pytest.mark.parametrize("spec, integrated", [
    (_pair(QUEUE, dataclasses.replace(QUEUE, label="other")), 4),
    (_pair(QUEUE, dataclasses.replace(
        QUEUE, capacity_pps=math.nextafter(150.0, math.inf))), 7),
    (_pair(FIXED, dataclasses.replace(FIXED, loss_p=-0.0)), 7),
], ids=["label-lumps", "one-ulp-capacity-splits", "signed-zero-loss-splits"])
def test_exchangeability_rule(spec, integrated):
    """Lumped: one TCP window, queue and average for both branches,
    plus the RLA window; split: all seven state variables."""
    assert len(_integrated(FluidModel(spec))) == integrated
    _same_as_reference(spec)


def test_cohort_order_is_part_of_a_branch():
    spec = FluidSpec(
        name="order", bottlenecks=(QUEUE, QUEUE),
        tcp_cohorts=(TcpCohortSpec(2, 0.1, 0), TcpCohortSpec(5, 0.2, 0),
                     TcpCohortSpec(5, 0.2, 1), TcpCohortSpec(2, 0.1, 1)),
        duration=0.5, warmup=0.1,
    )
    model = FluidModel(spec)
    assert len(_integrated(model)) == model.n_state
    _same_as_reference(spec)


# ----------------------------------------------------------------------
# the reduction happens, and is exact where it matters most
# ----------------------------------------------------------------------
def _symmetric(n, **horizon):
    return symmetric_fluid_spec(n_receivers=n, share_pps=100.0,
                                buffer_pkts=20, seed=1, gateway="droptail",
                                **{"duration": 3.0, "warmup": 1.0, **horizon})


def test_symmetric_sweep_integrates_one_branch_whatever_n():
    counts = {n: len(_integrated(FluidModel(_symmetric(n))))
              for n in (4, 16, 256)}
    assert counts == {4: 4, 16: 4, 256: 4}


def test_reduced_run_is_bit_identical_to_every_branch_run():
    spec = _symmetric(256, duration=0.3, warmup=0.1)
    model = FluidModel(spec)
    assert len(_integrated(model)) < model.n_state
    steps = (spec.dt, round(spec.horizon / spec.dt), round(0.1 / spec.dt))
    reduced = model.kernel(model.initial_state(), *steps)
    every = model.identity_run(model.initial_state(), *steps)
    assert pickle.dumps(reduced) == pickle.dumps(every)


def test_integrate_refuses_a_model_of_another_spec():
    spec = _pair(QUEUE, QUEUE)
    other = spec.replace(duration=2.0)
    with pytest.raises(ConfigurationError, match="model of"):
        integrate(spec, FluidModel(other))
    # an equal spec is still another object: 0.0 == -0.0, yet the two
    # emit different kernels
    with pytest.raises(ConfigurationError, match="model of"):
        integrate(spec, FluidModel(spec.replace()))
    assert integrate(spec, FluidModel(spec)).steps == 600
    # the equilibrium reads its load from the model's kernel: the same rule
    one = FluidSpec(name="one", bottlenecks=(QUEUE,),
                    tcp_cohorts=(TcpCohortSpec(3, 0.1),))
    for check in (solve_equilibrium, reynier_check):
        with pytest.raises(ConfigurationError, match="model of"):
            check(one, FluidModel(one.replace()))
