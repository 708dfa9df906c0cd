"""The emitted fluid kernel: determinism, tracebacks, build count, literals.

Bit-identity of what the kernel *computes* is
``test_integrator_oracle.py``'s job.  This file pins what is new with
code generation: the source is a pure function of the spec (two
interpreters with different hash seeds emit the same bytes), a failure
inside the generated code points at a generated line, one report row
compiles one kernel, and ``FluidSpec.validate`` refuses every value a
source literal cannot hold.
"""

from __future__ import annotations

import dataclasses
import gc
import linecache
import math
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys
import traceback

import pytest

import reference
import repro.fluid.model
from repro.errors import ConfigurationError
from repro.experiments.population import population_spec
from repro.experiments.sweeps import sweep
from repro.scenarios.grid import fluid_grid_cell
from repro.fluid import (
    BottleneckSpec,
    FluidModel,
    FluidSpec,
    RlaCohortSpec,
    TcpCohortSpec,
    integrate,
    run_fluid,
    symmetric_fluid_spec,
)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Builds the three specs in a child interpreter and here alike.
SPECS_SNIPPET = """
from repro.experiments.population import population_spec
from repro.fluid import (BottleneckSpec, FluidSpec, RlaCohortSpec,
                         TcpCohortSpec, symmetric_fluid_spec)
specs = [
    population_spec(1_000_000),
    symmetric_fluid_spec(n_receivers=16, share_pps=100.0, buffer_pkts=20,
                         duration=3.0, warmup=1.0, seed=1, gateway="droptail"),
    FluidSpec(
        name="mixed",
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
    ),
]
"""


def _specs():
    namespace = {}
    exec(SPECS_SNIPPET, namespace)
    return namespace["specs"]


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_source_is_byte_identical_across_interpreters(hash_seed):
    script = (SPECS_SNIPPET
              + "import sys\n"
              "from repro.fluid import FluidModel\n"
              "sys.stdout.write('\\0'.join(FluidModel(spec).kernel_source\n"
              "                           for spec in specs))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "PYTHONHASHSEED": hash_seed}
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, check=True)
    here = [FluidModel(spec).kernel_source for spec in _specs()]
    assert child.stdout.split("\0") == here
    assert all(source.startswith("# fluid kernel:") for source in here)


def test_exception_inside_the_kernel_shows_the_generated_line():
    spec = FluidSpec(
        name="traceback",
        bottlenecks=(BottleneckSpec(capacity_pps=10_000.0,
                                    discipline="fixed", loss_p=0.02),),
        tcp_cohorts=(TcpCohortSpec(3, 0.1),),
    )
    model = FluidModel(spec)
    # q = -1000 makes the effective RTT 0.1 - 0.1 = 0 and the load
    # divides by it.  (No clamped state gets there.)
    try:
        model.derivatives([2.0, -1000.0, 0.0])
    except ZeroDivisionError:
        text = traceback.format_exc()
    else:
        pytest.fail("the kernel did not divide by the zero RTT")
    assert "<fluid kernel 'traceback' " in text
    assert "l0 += 3.0 * s0 / r0" in text
    assert "l0 += 3.0 * s0 / r0" in model.kernel_source
    # The registered text lives exactly as long as the model — its own
    # model: a second one of the same spec (same source) keeps its entry
    # when the first is collected.
    twin = FluidModel(spec)
    assert twin.kernel_source == model.kernel_source
    filename = model.kernel.__code__.co_filename
    twin_filename = twin.kernel.__code__.co_filename
    assert filename != twin_filename
    del model
    gc.collect()
    assert filename not in linecache.cache
    assert linecache.getlines(twin_filename) == (
        twin.kernel_source.splitlines(True))
    del twin
    gc.collect()
    assert twin_filename not in linecache.cache


def test_fluid_md_shows_the_source_it_says_it_shows():
    """docs/FLUID.md lists ``run``'s head through its landing evaluation."""
    doc = (SRC.parent / "docs" / "FLUID.md").read_text()
    marker = "<!-- kernel: population_spec(1000) run -->\n```python\n"
    listing = doc.split(marker)[1].split("```")[0]
    source = FluidModel(population_spec(1_000)).kernel_source
    head = source[source.index("def run"):]
    assert listing == head[:head.index("break\n") + len("break\n")]


def test_population_source_computes_each_expression_once():
    """An RLA cohort reads the ``r{c}`` of the TCP cohort with its RTT,
    and the two RLA cohorts behind bottleneck 0 share one sum."""
    spec = population_spec(1_000)
    model = FluidModel(spec)
    source = model.kernel_source
    assert source.count("def ") == 1
    for cohort in spec.tcp_cohorts + spec.rla_cohorts:
        rtt = f"{cohort.rtt_s!r} + d0"
        assert source.count(rtt) == 4, rtt
    assert source.count("u0 * v\n") == 1
    first, second = model.instantaneous(model.initial_state())["rla_goodput"]
    assert first.hex() == second.hex()


def test_the_two_ieee_facts_the_kernel_text_relies_on():
    """``1.0 * x`` is ``x`` bit for bit, ``-0.0`` included, so a product
    may start from its first factor; ``0.0 + x`` is not (``0.0 + -0.0``
    is ``0.0``), so every sum keeps its ``0.0`` or ``-0.0`` start."""
    for x in (-0.0, 0.0, 5e-324, -1.5, math.inf, -math.inf):
        assert (1.0 * x).hex() == x.hex()
    assert math.copysign(1.0, 1.0 * -0.0) == -1.0
    assert math.copysign(1.0, 0.0 + -0.0) == 1.0
    assert math.copysign(1.0, -0.0 + -0.0) == -1.0


def _evaluations(source):
    """The source of each field evaluation: the landing one (with its
    accumulators) and the three RK4 stages."""
    marker = "# effective RTTs"
    parts = source.split(marker)[1:]
    assert len(parts) == 4
    return [[line.strip() for line in part.splitlines()] for part in parts]


def _symmetric(n):
    return symmetric_fluid_spec(n_receivers=n, share_pps=100.0,
                                buffer_pkts=20, duration=3.0, warmup=1.0,
                                seed=1, gateway="droptail")


def test_symmetric_twin_computes_as_many_g_h_factors_whatever_n():
    """Every branch of the lumped twin has the same G and H factor, so
    an evaluation computes two factors at any n; the products still take
    one factor per branch, in order."""
    counts = {}
    for n in (4, 16, 256):
        evaluations = _evaluations(FluidModel(_symmetric(n)).kernel_source)
        counts[n] = {sum(1 for line in lines if re.search(r"\+ p\d+ \* ", line))
                     for lines in evaluations}
        for lines in evaluations:
            assert lines.count("g *= f0") == lines.count("h *= f1") == n - 1
    assert counts == {4: {2}, 16: {2}, 256: {2}}


@pytest.mark.parametrize("spec", [
    population_spec(100_000),
    fluid_grid_cell("droptail", "wide", duration=6.0, warmup=2.0,
                    scale=25_000),
    fluid_grid_cell("red", "narrow", duration=6.0, warmup=2.0, scale=25_000),
], ids=["pop100k", "grid-droptail", "grid-red"])
def test_each_survival_and_queueing_delay_is_computed_once(spec):
    """Per evaluation, ``1 - p0`` of the final ``p0`` is one subtraction
    (RED's composition of its early-drop and ramp survivals aside) and
    the queueing delay ``q / C`` one division, whatever reads them."""
    capacity = repr(spec.bottlenecks[0].capacity_pps)
    for lines in _evaluations(FluidModel(spec).kernel_source):
        survivals = [line for line in lines
                     if "1.0 - p0" in line and not line.startswith("p0 = ")]
        assert survivals == ["u0 = 1.0 - p0"]
        delays = [line for line in lines if f"3 / {capacity}" in line]
        assert len(delays) == 1 and delays[0].startswith("d0 = ")


@pytest.mark.parametrize("spec", [
    population_spec(1_000),
    FluidSpec(name="fixed", bottlenecks=(
        BottleneckSpec(capacity_pps=10_000.0, discipline="fixed",
                       loss_p=0.02),),
        tcp_cohorts=(TcpCohortSpec(1, 0.1),),
        rla_cohorts=(RlaCohortSpec(2, 0.1),)),
], ids=["population", "fixed"])
def test_zero_step_run_matches_the_reference_off_the_physical_set(spec):
    """``derivatives`` and ``instantaneous`` take any state: signed
    zeros, negative queues that drive an RTT (and so ``rr``) to zero or
    below, NaN.  The kernel gives the reference's bits, or its error."""
    model = FluidModel(spec)
    old = reference.ReferenceModel(spec)
    values = (-0.0, 0.0, 1.0, 3.0, -1000.0, -1e6, 1e6, math.nan)
    draw = random.Random(7)

    def outcome(call, state):
        try:
            result = call(list(state))
        except ArithmeticError as error:
            return type(error).__name__
        if isinstance(result, dict):
            return {key: [v.hex() for v in value]
                    for key, value in result.items()}
        return [v.hex() for v in result]

    for _ in range(300):
        state = [draw.choice(values) for _ in range(model.n_state)]
        for name in ("derivatives", "instantaneous"):
            assert (outcome(getattr(model, name), state)
                    == outcome(getattr(old, name), state)), (name, state)


def test_one_row_compiles_one_kernel(monkeypatch):
    builds = []
    compile_kernel = repro.fluid.model.compile_kernel

    def counting(source, filename, owner):
        builds.append(filename)
        return compile_kernel(source, filename, owner)

    monkeypatch.setattr(repro.fluid.model, "compile_kernel", counting)
    row = run_fluid(population_spec(1_000, duration=2.0, warmup=1.0))
    # integrate, the equilibrium's load and stability_margin: one
    # model's kernel serves all three (the margin is there, so it was
    # used).
    assert row["equilibrium"]["stability_margin"] is not None
    assert len(builds) == 1


def test_shared_rtt_is_computed_once_and_bit_identical():
    """Two TCP cohorts and an RLA cohort at one RTT: one computation per
    evaluation, the others read it, and the run is the reference's."""
    spec = FluidSpec(
        name="shared rtt", duration=0.5, warmup=0.1,
        bottlenecks=(BottleneckSpec(capacity_pps=300.0, buffer_pkts=25.0),),
        tcp_cohorts=(TcpCohortSpec(2, 0.1), TcpCohortSpec(5, 0.1)),
        rla_cohorts=(RlaCohortSpec(3, 0.1),),
    )
    source = FluidModel(spec).kernel_source
    assert source.count("r0 = 0.1 + d0\n") == 4
    assert source.count("r1 = r0\n") == 4
    assert source.count("if r0 > rr:") == 4
    assert (pickle.dumps(integrate(spec))
            == pickle.dumps(reference.integrate(spec)))


def test_fluid_sweep_row_compiles_run_alone(monkeypatch):
    """A multi-bottleneck row never reads a field at an arbitrary state,
    so it compiles the lumped ``run`` and nothing else."""
    sources = []
    compile_kernel = repro.fluid.model.compile_kernel

    def recording(source, filename, owner):
        sources.append(source)
        return compile_kernel(source, filename, owner)

    monkeypatch.setattr(repro.fluid.model, "compile_kernel", recording)
    monkeypatch.setattr(FluidModel, "identity_run", property(
        lambda model: pytest.fail("built the identity-map run")))
    [row] = sweep("n_receivers", [256], duration=0.2, warmup=0.1,
                  backend="fluid")
    assert row["n_receivers"] == 256
    [source] = sources
    assert source.count("def ") == 1 and "def field" not in source
    assert "state variables 769, integrated 4\n" in source


def test_layout_alone_compiles_nothing(monkeypatch):
    monkeypatch.setattr(repro.fluid.model, "compile_kernel",
                        lambda *args: pytest.fail("compiled"))
    model = FluidModel(population_spec(1_000))
    assert len(model.initial_state()) == model.n_state == 5


# ----------------------------------------------------------------------
# FluidSpec.validate refuses what a literal cannot hold
# ----------------------------------------------------------------------
BASE = population_spec(1_000, duration=2.0, warmup=1.0)


def _bottleneck(**fields):
    return BASE.replace(bottlenecks=(
        dataclasses.replace(BASE.bottlenecks[0], **fields),))


def _tcp(**fields):
    return BASE.replace(tcp_cohorts=(
        dataclasses.replace(BASE.tcp_cohorts[0], **fields),
        *BASE.tcp_cohorts[1:]))


@pytest.mark.parametrize("spec, field", [
    (_bottleneck(capacity_pps=math.nan), "capacity_pps"),
    (_tcp(rtt_s=math.nan), "rtt_s"),
    (_bottleneck(capacity_pps=math.inf), "capacity_pps"),
    (_bottleneck(buffer_pkts=math.inf), "buffer_pkts"),
    (_bottleneck(buffer_pkts=math.nan), "buffer_pkts"),
    (_tcp(rtt_s=math.inf), "rtt_s"),
    (_bottleneck(max_th=math.inf), "max_th"),
    (_tcp(flows=2.5), "flows"),
], ids=["capacity=nan", "rtt=nan", "capacity=inf", "buffer=inf",
        "buffer=nan", "rtt=inf", "max_th=inf", "flows=2.5"])
def test_validate_names_the_field_no_literal_can_hold(spec, field):
    """Each of these ended in a ``ValueError``, a ``ZeroDivisionError``
    or a plausible-looking row before validation covered it."""
    with pytest.raises(ConfigurationError, match=field):
        spec.validate()
    with pytest.raises(ConfigurationError, match=field):
        run_fluid(spec)


def test_unvalidated_non_finite_constant_is_a_configuration_error():
    model = FluidModel(_bottleneck(w_q=math.inf))
    with pytest.raises(ConfigurationError, match="finite"):
        model.kernel
