"""The fused fluid integrator against the step-by-step code it replaced.

``repro.fluid`` evaluates the whole vector field in one pass over
constants compiled from the spec, and shares each step's observables
with the next step's first RK4 stage.  ``reference.py`` (next to this
file) is the pre-fusion integrator, verbatim.  The two must agree *bit
for bit*: the Reynier stability margin is a numerical linearisation of
``FluidModel.derivatives``, every fluid report row is locked
byte-identical across execution modes, and a last-digit drift would
silently re-key every cached row.  Floats are compared through
``float.hex`` so ``-0.0 != 0.0`` and ``nan == nan``.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from repro.experiments.population import population_spec
from repro.fluid import (
    BottleneckSpec,
    FluidModel,
    FluidSpec,
    RlaCohortSpec,
    TcpCohortSpec,
    integrate,
    rk4_step,
    symmetric_fluid_spec,
)
from repro.scenarios.grid import GridSpec, fluid_grid_specs


def _bits(values):
    return [value.hex() for value in values]


# ----------------------------------------------------------------------
# the specs the CLI surfaces build (rlabench's ``fluid_population``
# horizons), plus hand-built ones for the paths those never reach
# ----------------------------------------------------------------------
def _fixed(loss_p, **cohorts):
    return FluidSpec(
        name=f"fixed p={loss_p}",
        bottlenecks=(BottleneckSpec(capacity_pps=10_000.0,
                                    discipline="fixed", loss_p=loss_p),),
        duration=3.0, warmup=1.0, **cohorts,
    )


def _ladder_specs():
    specs = [population_spec(n, duration=6.0, warmup=2.0)
             for n in (1_000, 100_000, 1_000_000)]
    specs += [
        symmetric_fluid_spec(n_receivers=n, share_pps=100.0, buffer_pkts=20,
                             duration=3.0, warmup=1.0, seed=1,
                             gateway=gateway)
        for gateway in ("droptail", "red") for n in (4, 16)
    ]
    specs += fluid_grid_specs(GridSpec(backend="fluid", scale=25_000.0,
                                       ecn_modes=(False,), duration=6.0,
                                       warmup=2.0))
    specs += [
        _fixed(0.02, tcp_cohorts=(TcpCohortSpec(3, 0.1),
                                  TcpCohortSpec(5, 0.04))),
        _fixed(0.02, rla_cohorts=(RlaCohortSpec(8, 0.1),
                                  RlaCohortSpec(2, 0.25))),
        # A sum of negative zeros is a negative zero: the accumulators
        # must not start from +0.0.
        _fixed(-0.0, tcp_cohorts=(TcpCohortSpec(1, 0.1),)),
        FluidSpec(
            name="two-bottleneck grouped loss",
            bottlenecks=(
                BottleneckSpec(capacity_pps=400.0, buffer_pkts=30.0,
                               discipline="red", min_th=8.0, max_th=22.0),
                BottleneckSpec(capacity_pps=300.0, buffer_pkts=25.0),
                BottleneckSpec(capacity_pps=10_000.0, discipline="fixed",
                               loss_p=0.01),
            ),
            tcp_cohorts=(TcpCohortSpec(2, 0.08, 0), TcpCohortSpec(3, 0.12, 1),
                         TcpCohortSpec(1, 0.2, 2)),
            rla_cohorts=(RlaCohortSpec(6, 0.1, 0), RlaCohortSpec(4, 0.15, 1),
                         RlaCohortSpec(3, 0.05, 0)),
            duration=3.0, warmup=1.0,
        ),
    ]
    return specs


def _spec_id(spec):
    disciplines = sorted({bn.discipline for bn in spec.bottlenecks})
    return f"{spec.name} [{'+'.join(disciplines)}]"


@pytest.mark.parametrize("spec", _ladder_specs(), ids=_spec_id)
def test_result_pickle_identical_to_reference(spec):
    assert (pickle.dumps(integrate(spec))
            == pickle.dumps(reference.integrate(spec)))


# ----------------------------------------------------------------------
# specs nobody hand-picked
# ----------------------------------------------------------------------
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def bottlenecks(draw):
    discipline = draw(st.sampled_from(("droptail", "red", "fixed")))
    capacity = draw(st.floats(min_value=50.0, max_value=5_000.0))
    if discipline == "fixed":
        return BottleneckSpec(capacity_pps=capacity, discipline="fixed",
                              loss_p=draw(st.floats(0.0, 0.2)))
    buffer = draw(st.floats(min_value=5.0, max_value=200.0))
    if discipline == "droptail":
        return BottleneckSpec(capacity_pps=capacity, buffer_pkts=buffer)
    min_th = buffer * draw(st.floats(min_value=0.05, max_value=0.5))
    max_th = min_th + (buffer - min_th) * draw(st.floats(0.1, 1.0))
    return BottleneckSpec(
        capacity_pps=capacity, buffer_pkts=buffer, discipline="red",
        min_th=min_th, max_th=max_th,
        w_q=draw(st.floats(min_value=1e-4, max_value=0.02)),
        max_p=draw(st.floats(min_value=0.02, max_value=1.0)),
    )


@st.composite
def small_specs(draw):
    """1-4 mixed bottlenecks, 0-5 TCP and 0-3 RLA cohorts (>= 1 cohort)."""
    queues = tuple(draw(st.lists(bottlenecks(), min_size=1, max_size=4)))
    where = st.integers(0, len(queues) - 1)
    rtt = st.floats(min_value=0.02, max_value=0.3)
    tcp = draw(st.lists(
        st.builds(TcpCohortSpec, st.integers(1, 500), rtt, where),
        max_size=5))
    rla = draw(st.lists(
        st.builds(RlaCohortSpec, st.integers(1, 64), rtt, where),
        min_size=0 if tcp else 1, max_size=3))
    return FluidSpec(
        name="drawn", bottlenecks=queues, tcp_cohorts=tuple(tcp),
        rla_cohorts=tuple(rla), duration=0.3,
        warmup=draw(st.sampled_from((0.0, 0.1))),
        rla_rtt_factor=draw(st.floats(min_value=1.0, max_value=2.0)),
    )


def _in_range_state(model, fractions):
    """Windows in [1, 61], queues and averages in [0, buffer]."""
    spec = model.spec
    buffers = [bn.buffer_pkts for bn in spec.bottlenecks] * 2
    fractions = iter(fractions)
    return ([1.0 + 60.0 * next(fractions) for _ in range(model.base_q)]
            + [buffer * next(fractions) for buffer in buffers])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=small_specs())
def test_drawn_specs_integrate_bitwise_like_reference(spec):
    new = integrate(spec)
    old = reference.integrate(spec)
    assert _bits(new.final_state) == _bits(old.final_state)
    assert _bits(new.peak_queue) == _bits(old.peak_queue)
    assert list(new.means) == list(old.means)
    for key, values in old.means.items():
        assert _bits(new.means[key]) == _bits(values), key
    assert (new.steps, new.measured_s) == (old.steps, old.measured_s)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=small_specs(),
       fractions=st.lists(unit, min_size=14, max_size=14))
def test_field_bitwise_like_reference_at_drawn_states(spec, fractions):
    """``derivatives`` (so ``stability_margin``), every intermediate,
    the named observables and one RK4 step, at in-range states."""
    model = FluidModel(spec)
    old = reference.ReferenceModel(spec)
    state = _in_range_state(model, fractions)

    assert _bits(model.derivatives(state)) == _bits(old.derivatives(state))

    _, tcp_rtts, rla_rtt, loads, ps = model.field(state)
    old_tcp_rtts, old_rla_rtt = old.rtts(state)
    old_loads = old.arrivals(state, old_tcp_rtts, old_rla_rtt)
    assert _bits(tcp_rtts) == _bits(old_tcp_rtts)
    assert rla_rtt.hex() == old_rla_rtt.hex()
    assert _bits(loads) == _bits(old_loads)
    assert _bits(ps) == _bits(old.losses(state, old_loads))

    observed = model.instantaneous(state)
    expected = old.instantaneous(state)
    assert list(observed) == list(expected)
    for key, values in expected.items():
        assert _bits(observed[key]) == _bits(values), key

    assert (_bits(rk4_step(model, list(state), spec.dt))
            == _bits(reference.rk4_step(old, list(state), spec.dt)))
