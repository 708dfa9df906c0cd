"""What a command may import, checked in fresh interpreters.

Every ``repro-rla`` invocation, pool worker and cache replay pays for the
modules its subcommand pulls in.  networkx is not a dependency any more
and numpy is needed by the fig4/fig5 arrays only (the fluid stability
margin takes its eigenvalues in-tree), so a packet or fluid command that
loads either one (or networkx's heavy stdlib tail,
``importlib.metadata``/``email``) has regressed start-up for everyone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"networkx", "numpy", "importlib.metadata", "email"}

_CHILD = """
import contextlib, io, json, sys
import repro.cli
argvs = json.loads(sys.argv[1])
out = io.StringIO()
codes = []
with contextlib.redirect_stdout(out):
    for argv in argvs:
        codes.append(repro.cli.main(argv))
json.dump({"codes": codes, "stdout": out.getvalue(),
           "modules": sorted(sys.modules)}, sys.stdout)
"""


def _fresh(*argvs):
    """Run ``main(argv)`` for each argv in one new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([list(a) for a in argvs])],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["codes"] == [0] * len(argvs), report["stdout"]
    return report["stdout"], set(report["modules"])


SHORT = ("--duration", "2", "--warmup", "1")


def test_importing_the_cli_loads_no_heavy_library():
    _, modules = _fresh()
    assert "repro.cli" in modules
    assert not HEAVY & modules
    assert not {m for m in modules if m.startswith(
        ("repro.scenarios", "repro.fluid", "repro.runtime", "repro.audit",
         "repro.checkpoint"))}


@pytest.mark.parametrize("argv", [
    ("fig7", "--cases", "1", *SHORT),
    ("fig9", "--cases", "1", *SHORT),
    ("sweep", "--counts", "2", "--workers", "1", "--metrics", *SHORT),
    ("scenarios", "run", "tree-churn", "--audit", *SHORT),
    ("fluid", "scale", "--counts", "1000", *SHORT),
    ("sweep", "--backend", "fluid", "--counts", "4", *SHORT),
    ("scenarios", "grid", "--backend", "fluid", "--scale", "25000",
     "--ecn", "off", *SHORT),
], ids=["fig7", "fig9", "sweep", "scenarios",
        "fluid-scale", "fluid-sweep", "fluid-grid"])
def test_packet_commands_load_no_heavy_library(argv):
    """Packet commands, and the fluid ones since their margin's
    eigenvalues are computed in-tree."""
    stdout, modules = _fresh(argv)
    assert stdout.strip()
    assert not HEAVY & modules


def test_tree_figures_load_neither_fluid_nor_scenarios():
    _, modules = _fresh(("fig7", "--cases", "1", *SHORT))
    assert not {m for m in modules
                if m.startswith(("repro.fluid", "repro.scenarios"))}


def test_cache_replay_loads_no_heavy_library(tmp_path):
    argv = ("sweep", "--counts", "2", "3", "--cache", str(tmp_path),
            "--metrics", *SHORT)
    cold, _ = _fresh(argv)
    warm, modules = _fresh(argv)
    assert "cache" in warm and "simulated work: 0.00 s" in warm
    assert cold.split("\n\n")[0] == warm.split("\n\n")[0]  # same table
    assert not HEAVY & modules


def test_numpy_users_still_load_it_and_print_the_same_tables():
    # expected text is what the commit before the lazy imports printed;
    # the fluid ladder printed the same row while it still took its
    # stability margin from numpy's eigvals
    fig4, modules = _fresh(("fig4",))
    assert "numpy" in modules and "networkx" not in modules
    assert fig4.splitlines()[0] == (
        "Figure 4 - drift field, n=3, pipe=10 (fair point at 5,5)")
    assert "w2=   9 ↗ ↙ ↙ ↙ ↙ ↙ ↙ ↙ ↙ ↙ ↙ ↙" in fig4
    assert "w2=   1 ↗ ↗ ↗ ↗ ↗ ↗ ↗ ↗ ↗ ← ← ←" in fig4

    fig5, modules = _fresh(("fig5", "--steps", "5000"))
    assert "networkx" not in modules
    assert fig5 == ("mean cwnds: (15.8, 15.7); fair point (20.0, 20.0); "
                    "mass within radius 10: 48.50%\n")

    scale, modules = _fresh(("fluid", "scale", "--counts", "1000", *SHORT))
    assert not HEAVY & modules
    assert ("     1000      1000     15.07    25.30   0.595    "
            "(0.33, 54.77)  yes  0.654     0.754") in scale
