"""Same output: does a checkout print what BASE printed, byte for byte?

A change meant to leave behaviour alone (a refactor, a deleted knob, a
faster path that keeps every tie) proves it here: one fixed list of
``repro-rla`` command lines and example scripts runs on BASE's tree and
on this checkout, and each stdout must be byte-identical.

    make same-output BASE=<rev>
    python benchmarks/same_output.py BASE_DIR

``BASE_DIR`` is an unpacked tree of BASE (the make target unpacks
``git archive BASE``).  The list covers what rlabench's ``result_digest``
never runs: every catalog scenario plain and ``--audit``, the AQM grid on
both backends, the fluid crossval packet side and ladder, a sweep, every
paper table, and ``examples/red_vs_droptail.py`` (the figure 1 topology
behind a RED gateway, which no command line reaches).  ``--metrics``
stays off because it prints wall times; ``fluid scale`` prints a host
``wall`` cell of its own, which is masked before the comparison.  Each
command runs from an empty temporary directory with ``PYTHONPATH``
pointing at one tree's ``src`` (a script runs from that tree too), two
commands at a time.

Exit status 0 when every stdout matches, 1 on the first-listed mismatch
(its diff is printed), 2 when a command fails on either side.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent.parent

SCENARIOS = ("waxman-churn", "waxman-steady", "tree-churn",
             "transit-stub-mice", "tree-large-churn", "tree-bursty",
             "rtt-cohorts-codel", "rtt-cohorts-pie", "rtt-cohorts-red-byte")
SHORT = ("--duration", "6", "--warmup", "2")
TABLE = ("--duration", "3", "--warmup", "1")

#: ``(argv, mask)``: the ``repro-rla`` command line (or a script path
#: relative to the tree, then its arguments), and a regex whose matches
#: are blanked before the comparison (wall-clock cells), or None.
COMMANDS: List[Tuple[Tuple[str, ...], Optional[str]]] = [
    *((("scenarios", "run", *SCENARIOS, *SHORT, *audit), None)
      for audit in ((), ("--audit",))),
    (("scenarios", "grid", *TABLE), None),
    (("scenarios", "grid", "--backend", "fluid"), None),
    (("fluid", "crossval", "--cases", "10", "40"), None),
    (("fluid", "scale"), r"\d+\.\d+s$"),
    (("sweep", "--counts", "2", "3", *TABLE), None),
    (("fig7", "--cases", "1", "2", "3", "4", "5", *TABLE), None),
    (("fig9", "--cases", "1", "2", "3", "4", "5", *TABLE), None),
    (("fig10", *TABLE), None),
    (("multisession", *TABLE), None),
    (("examples/red_vs_droptail.py",), None),
]


def label(argv: Tuple[str, ...]) -> str:
    """How a command line reads in the report."""
    script = argv[0].endswith(".py")
    return " ".join(argv if script else ("repro-rla", *argv))


def run(tree: Path, argv: Tuple[str, ...], mask: Optional[str]):
    """``(stdout, seconds)`` of one command on one tree; raises on failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    if argv[0].endswith(".py"):
        command = [sys.executable, str(tree / argv[0]), *argv[1:]]
    else:
        command = [sys.executable, "-m", "repro.cli", *argv]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                              text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {label(argv)} exited "
                           f"{done.returncode}:\n{done.stderr}")
    out = done.stdout
    if mask is not None:
        out = re.sub(mask, "<masked>", out, flags=re.MULTILINE)
    return out, time.perf_counter() - started


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="unpacked tree of BASE")
    args = parser.parse_args(argv)

    jobs = [(tree, cmd, mask) for cmd, mask in COMMANDS
            for tree in (args.base.resolve(), HERE)]
    try:
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(lambda job: run(*job), jobs))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mismatched = []
    totals = [0.0, 0.0]
    for index, (cmd, _mask) in enumerate(COMMANDS):
        (base_out, base_s), (here_out, here_s) = results[2 * index:2 * index + 2]
        totals[0] += base_s
        totals[1] += here_s
        same = base_out == here_out
        print(f"{'same' if same else 'DIFF'}  {base_s:6.1f}s {here_s:6.1f}s"
              f"  {label(cmd)}")
        if not same:
            mismatched.append((cmd, base_out, here_out))
    print(f"total {totals[0]:.1f}s base, {totals[1]:.1f}s here "
          f"(summed per command, {len(COMMANDS)} commands)")
    if mismatched:
        cmd, base_out, here_out = mismatched[0]
        sys.stdout.writelines(difflib.unified_diff(
            base_out.splitlines(True), here_out.splitlines(True),
            "base: " + label(cmd), "here: " + label(cmd)))
        print(f"{len(mismatched)} of {len(COMMANDS)} stdouts differ")
        return 1
    print(f"same output: all {len(COMMANDS)} stdouts byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
