"""Byte-identity of fluid reports across execution modes.

The integrator draws no random numbers and takes a fixed number of RK4
steps, so the same :class:`FluidSpec` must produce a *byte-identical*
report pickle whether it runs serially, through the parallel runtime's
worker pool, out of the content-addressed result cache, or in a brand
new interpreter.  Any divergence means hidden state (RNG, wall clock,
dict ordering, accumulation order) leaked into the dynamics.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys

from repro.fluid import run_fluid
from repro.fluid.crossval import CROSSVAL_CASES, fluid_twin
from repro.lifecycle import run_many

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

# Short horizon keeps the test fast; the RED dumbbell twin exercises
# every state variable (windows, queue, EWMA average).
SPEC_SNIPPET = (
    "from repro.fluid.crossval import CROSSVAL_CASES, fluid_twin\n"
    "spec = fluid_twin(CROSSVAL_CASES[0]).replace(duration=5.0, "
    "warmup=2.0)\n"
)


def _spec():
    namespace = {}
    exec(SPEC_SNIPPET, namespace)
    return namespace["spec"]


def test_serial_and_parallel_runs_byte_identical():
    spec = _spec()
    serial = pickle.dumps(run_fluid(spec))
    parallel = run_many([spec], workers=2)
    assert pickle.dumps(parallel[0]) == serial


def test_cache_replay_byte_identical(tmp_path):
    from repro.runtime import ResultCache

    spec = _spec()
    serial = pickle.dumps(run_fluid(spec))
    first = run_many([spec], cache=ResultCache(str(tmp_path)))
    replay = run_many([spec], cache=ResultCache(str(tmp_path)))
    assert pickle.dumps(first[0]) == serial
    assert pickle.dumps(replay[0]) == serial


def test_fresh_interpreter_byte_identical():
    spec = _spec()
    here = pickle.dumps(run_fluid(spec))
    script = (
        "import pickle, sys\n"
        + SPEC_SNIPPET
        + "from repro.fluid import run_fluid\n"
        "sys.stdout.write(pickle.dumps(run_fluid(spec)).hex())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert bytes.fromhex(out.stdout) == here
