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
import subprocess
import sys
import traceback

import pytest

import repro.fluid.model
from repro.errors import ConfigurationError
from repro.experiments.population import population_spec
from repro.fluid import (
    BottleneckSpec,
    FluidModel,
    FluidSpec,
    TcpCohortSpec,
    run_fluid,
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
        model.field([2.0, -1000.0, 0.0])
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
    filename = model.kernel[0].__code__.co_filename
    twin_filename = twin.kernel[0].__code__.co_filename
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
    doc = (SRC.parent / "docs" / "FLUID.md").read_text()
    marker = "<!-- kernel: population_spec(1000) field -->\n```python\n"
    listing = doc.split(marker)[1].split("```")[0]
    source = FluidModel(population_spec(1_000)).kernel_source
    assert listing.strip() and listing + "\ndef step" in source


def test_one_row_compiles_one_kernel(monkeypatch):
    builds = []
    compile_kernel = repro.fluid.model.compile_kernel

    def counting(source, filename, owner):
        builds.append(filename)
        return compile_kernel(source, filename, owner)

    monkeypatch.setattr(repro.fluid.model, "compile_kernel", counting)
    row = run_fluid(population_spec(1_000, duration=2.0, warmup=1.0))
    # integrate + equilibrium_state + stability_margin: one model's
    # kernel serves all three (the margin is there, so it was used).
    assert row["equilibrium"]["stability_margin"] is not None
    assert len(builds) == 1


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
