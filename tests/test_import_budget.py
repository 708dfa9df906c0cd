"""What a command may import, checked in fresh interpreters.

Every ``repro-rla`` invocation, pool worker and cache replay pays for the
modules its subcommand pulls in.  networkx is not a dependency any more
and numpy is needed by the fig4/fig5 arrays only (the fluid stability
margin takes its eigenvalues in-tree), so a packet or fluid command that
loads either one (or networkx's heavy stdlib tail,
``importlib.metadata``/``email``) has regressed start-up for everyone.

The packet simulator and the pool machinery load where a world is built
and where a pool starts: importing the CLI, and a replay served wholly
from the cache, load neither.  The CLI entry imports no subcommand's
modules: the tree-figure chain loads for a figure subcommand alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"networkx", "numpy", "importlib.metadata", "email"}
#: What only building a world, or starting a pool, may load.
SIMULATOR = ("repro.sim", "repro.net", "repro.tcp", "repro.rla",
             "repro.checkpoint", "concurrent.futures", "multiprocessing")
#: The tree-figure chain: what only a figure subcommand, or ``paper``,
#: loads.
FIGURE_CHAIN = ("repro.experiments.figures", "repro.experiments.runner",
                "repro.experiments.tables", "repro.experiments.paperdata",
                "repro.topology.cases", "repro.topology.tree")
#: What a fluid command and the scenario catalog never load: the packet
#: world, the module that builds it for both backends (crossval), and
#: the pool.
PACKET_WORLD = ("repro.sim", "repro.tcp", "repro.rla", "repro.checkpoint",
                "repro.net.network", "repro.net.link", "repro.net.node",
                "repro.fluid.crossval", "repro.scenarios.runner",
                "concurrent.futures")


def _under(modules, packages):
    return {m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)}

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


def test_importing_the_cli_loads_the_entry_point_alone():
    _, modules = _fresh()
    assert _under(modules, ("repro",)) == {"repro", "repro.cli",
                                           "repro.errors"}
    assert not {"dataclasses", "inspect"} & modules


@pytest.mark.parametrize("argv", [
    ("sweep", "--counts", "2", *SHORT),
    ("scenarios", "list"),
    ("fluid", "scale", "--counts", "1000", *SHORT),
], ids=["sweep", "scenarios-list", "fluid-scale"])
def test_other_commands_load_no_figure_chain(argv):
    stdout, modules = _fresh(argv)
    assert stdout.strip()
    assert not _under(modules, FIGURE_CHAIN)


_USAGE = """
import contextlib, io, json, sys
import repro.cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        repro.cli.main(sys.argv[1:])
    except SystemExit as exit_:
        code = exit_.code
json.dump({"code": code, "modules": sorted(sys.modules)}, sys.stdout)
"""


@pytest.mark.parametrize("argv", [("-h",), ("nonesuch",)],
                         ids=["help", "unknown-subcommand"])
def test_program_help_and_usage_errors_load_no_option_module(argv):
    """``repro-rla -h`` and an unknown first word print the subcommand
    names and help lines alone: no option adder runs, so neither the
    figure chain nor the modules ``choices=`` come from load."""
    child = subprocess.run(
        [sys.executable, "-c", _USAGE, *argv], capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["code"] == (0 if argv == ("-h",) else 2)
    assert _under(report["modules"], ("repro",)) == {
        "repro", "repro.cli", "repro.errors"}


def test_a_warm_sweep_replay_loads_no_figure_chain(tmp_path):
    argv = ("sweep", "--counts", "2", "--cache", str(tmp_path), "--metrics",
            *SHORT)
    _fresh(argv)
    warm, modules = _fresh(argv)
    assert "simulated work: 0.00 s" in warm
    assert not _under(modules, FIGURE_CHAIN)


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


def test_importing_the_cli_loads_no_simulator():
    _, modules = _fresh()
    assert not _under(modules, SIMULATOR)


def test_cache_replay_loads_no_simulator_and_no_pool(tmp_path):
    cache = str(tmp_path)
    argvs = [("fig7", "--cases", "1", "2", "--workers", "2", "--cache", cache,
              "--checkpoint-at", "1.5", "--metrics", *SHORT),
             ("sweep", "--counts", "2", "3", "--workers", "2", "--cache",
              cache, "--metrics", *SHORT)]
    cold, _ = _fresh(*argvs)
    warm, modules = _fresh(*argvs)
    assert cold.count("simulated work: 0.00 s") == 0
    assert warm.count("simulated work: 0.00 s") == 2
    assert not _under(modules, SIMULATOR)


def test_quick_start_names_still_resolve():
    import repro

    from repro import Network, RLASession, Simulator, TcpFlow

    assert (Simulator.__module__, Network.__module__, TcpFlow.__module__,
            RLASession.__module__) == ("repro.sim.engine", "repro.net.network",
                                       "repro.tcp.flow", "repro.rla.session")
    assert all(getattr(repro, name) is not None for name in repro.__all__)
    with pytest.raises(AttributeError, match="no attribute 'Nonesuch'"):
        repro.Nonesuch


def test_a_pool_run_prints_the_serial_table(tmp_path):
    """Pool workers import the simulator on their first build, not from the
    CLI process; their rows must be the serial run's."""
    argvs = [("fig7", "--cases", "1", "2", *SHORT),
             ("sweep", "--counts", "2", "3", *SHORT)]
    serial, _ = _fresh(*argvs)
    pooled, _ = _fresh(*((*argv, "--workers", "2", "--cache", str(tmp_path))
                         for argv in argvs))
    assert pooled == serial


@pytest.mark.parametrize("argv", [
    ("fluid", "scale", "--counts", "1000", *SHORT),
    ("sweep", "--backend", "fluid", "--counts", "4", *SHORT),
    ("scenarios", "grid", "--backend", "fluid", "--scale", "25000",
     "--ecn", "off", *SHORT),
    ("scenarios", "list"),
], ids=["fluid-scale", "fluid-sweep", "fluid-grid", "scenarios-list"])
def test_fluid_commands_and_the_catalog_load_no_packet_simulator(argv):
    stdout, modules = _fresh(argv)
    assert stdout.strip()
    assert not _under(modules, PACKET_WORLD)


_ROOTS = """
import importlib, inspect, pkgutil, sys, types
for root in ("repro.net", "repro.fluid", "repro.scenarios"):
    package = importlib.import_module(root)
    names = {name: getattr(package, name) for name in package.__all__}
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{root}.{info.name}")
    for name, value in names.items():
        assert getattr(package, name) is value, (root, name)
        assert not isinstance(value, types.ModuleType), (root, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__.startswith(root + "."), (root, name)
            assert getattr(sys.modules[value.__module__], name) is value
assert inspect.isfunction(sys.modules["repro.fluid"].integrate)
"""


def test_lazy_roots_resolve_every_name_to_its_definition():
    """Each name a lazy package root exports is the object its defining
    module holds, before and after every submodule is imported — a
    function that shares its submodule's name (``repro.fluid.integrate``)
    stays the function."""
    child = subprocess.run(
        [sys.executable, "-c", _ROOTS], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert child.returncode == 0, child.stderr
