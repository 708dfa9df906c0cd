"""Timed passes: spawn ``python -m repro.cli`` as a user would, measure it.

One *pass* issues a workload's commands back to back as fresh
subprocesses; each is timed from spawn to exit with ``perf_counter`` and
its process tree's CPU and peak RSS are read from ``os.wait4``.  Timed
passes run with tracing off (see :mod:`tracing` for the traced run).
"""

from __future__ import annotations

import heapq
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from checks import Checks, check_command, check_identical, digest, stable_text
from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run never reports fewer timed passes than this.
MIN_PASSES = 3


class Scratch:
    """Per-invocation temp dir under ``out/`` holding every byte the
    benchmark writes: source copies with their bytecode, result caches,
    ``.ckpt`` files, captured output.

    It lives inside the checkout (the benchmark may write nowhere else)
    and is removed on exit, also when the run fails.
    """

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self._serial = 0

    def fresh(self, stem: str) -> Path:
        """A new, not yet existing path inside the scratch dir."""
        self._serial += 1
        return self.path / f"{stem}-{self._serial}"

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def fresh_source(scratch: Scratch) -> Path:
    """A copy of ``src`` without bytecode: importing from it is a cold start.

    Spawned interpreters import ``repro`` from such a copy, so the
    package's bytecode is cold exactly when a set-up says so, lands in the
    scratch dir, and the checkout's ``src`` is never written.  (A fresh
    ``PYTHONPYCACHEPREFIX`` would do the same but also recompiles the
    standard library, numpy and networkx: 1.3 s that says nothing about
    this repository, against 0.07 s for the package itself.)
    """
    copy = scratch.fresh("src")
    shutil.copytree(SRC, copy,
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return copy


def child_env(source: Path, cache_dir: Path) -> Dict[str, str]:
    """Environment of every spawned interpreter: ``repro`` comes from
    ``source``, bytecode is written beside it, and the default result
    cache is redirected so the repo's ``.repro-cache`` is never touched.

    BLAS is held to one thread.  ``import numpy`` otherwise starts an
    OpenBLAS worker that spins for 2^28 cycles (0.13 s) before it first
    sleeps; whether that spin lands on the command's own core (+0.1 s
    wall) or on the idle one (+0.1 s CPU) depends on what the machine ran
    a minute earlier, which made every timing bimodal.  The simulator
    calls BLAS once, on a 3x3 matrix.
    """
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(source) + (
        os.pathsep + inherited if inherited else "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


@dataclass
class Spawned:
    """One finished subprocess."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(args: Sequence[str], env: Dict[str, str], cwd: Path) -> Spawned:
    """Run ``python <args>`` to completion; time it from spawn to exit.

    The child leads its own process group so that an interrupted harness
    can take the child's pool workers down with it.
    """
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    return Spawned(
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


#: Seconds :func:`calibrate` takes on the quiet reference box (2-core
#: Xeon 2.1 GHz VM, CPython 3.11).  Timings are reported in seconds *of
#: that box*: measured seconds times ``CALIB_REF_S / calibrate()``.
CALIB_REF_S = 0.070


class _Sink:
    __slots__ = ("value",)

    def bump(self, x: float) -> None:
        self.value += x * 0.5


class _Event:
    __slots__ = ("time", "seq", "callback", "args")

    def __init__(self, time: float, seq: int, callback: Any, args: Any):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args


def calibrate() -> Tuple[float, float]:
    """Wall and CPU seconds a fixed pure-Python kernel takes right now.

    Slotted-object allocation, heap push/pop of tuples, string-keyed dict
    stores, bound-method calls, a deque and float arithmetic — what the
    simulator's hot loops are made of, but none of its code, so a change
    to the simulator cannot move it.  On the shared reference box the
    same pass takes 1.4-2.5 s depending on what the host's other tenants
    do; the kernel, timed between the commands of every pass, slows down
    with it (r = 0.96 on ``paper_tables``), which is what lets a slower
    commit be told from a slower minute.  Wall time is calibrated with
    the kernel's wall time and CPU time with its CPU time: when the
    hypervisor steals the core the first grows and the second does not.
    Call it from a small process: the collections its allocations trigger
    traverse the caller's heap.
    """
    start, cpu_start = time.perf_counter(), time.process_time()
    heap: List[Any] = []
    table: Dict[str, Any] = {}
    ready: Deque[Any] = deque()
    sink = _Sink()
    sink.value = 0.0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(40_000):
        x = (i * 2654435761 % 1000003) / 1000003.0
        event = _Event(x, i, sink.bump, (x,))
        push(heap, (x, i, event))
        table[f"n{i & 4095}.tx"] = event
        if i & 1:
            _, _, due = pop(heap)
            due.callback(*due.args)
            ready.append(due)
            if len(ready) > 256:
                ready.popleft()
    return time.perf_counter() - start, time.process_time() - cpu_start


def summary(samples: Sequence[float]) -> Dict[str, Any]:
    """Median with min, quartiles and sample count beside it."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "min": min(samples),
            "q1": q1, "q3": q3, "n": len(samples), "samples": list(samples)}


@dataclass
class PassResult:
    """One pass: raw host seconds and the calibrations taken inside it."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    #: (wall, cpu) of each calibration
    calib: List[Tuple[float, float]] = field(default_factory=list)
    #: command index -> stdout with host timings blanked
    texts: Dict[int, str] = field(default_factory=dict)
    #: command index -> the same with cache provenance blanked too
    replay_texts: Dict[int, str] = field(default_factory=dict)

    @property
    def ref_wall_s(self) -> float:
        """``wall_s`` in seconds of the reference box."""
        return self.wall_s * to_ref(self.calib, 0)

    @property
    def ref_cpu_s(self) -> float:
        """``cpu_s`` in CPU seconds of the reference box."""
        return self.cpu_s * to_ref(self.calib, 1)


def to_ref(calib: Sequence[Tuple[float, float]], clock: int) -> float:
    """Factor from host seconds to reference seconds (0: wall, 1: CPU)."""
    return CALIB_REF_S / statistics.fmean(c[clock] for c in calib)


def run_pass(
    workload: Workload,
    order: Sequence[int],
    seed: int,
    env: Dict[str, str],
    scratch: Scratch,
    cache_dir: Path,
    checks: Checks,
    label: str,
    replay: bool = False,
) -> PassResult:
    """Issue the commands once, in ``order``; check every output.

    Unless ``replay`` is set the pass starts from an empty result cache
    and nothing may be served from it; with ``replay`` everything must be.
    The calibration kernel runs before each command and after the last.
    """
    if not replay:
        shutil.rmtree(cache_dir, ignore_errors=True)
    result = PassResult(calib=[calibrate()])
    for index in order:
        command = workload.commands[index]
        done = spawn(["-m", "repro.cli", *command.argv(seed, str(cache_dir))],
                     env, scratch.path)
        result.calib.append(calibrate())
        result.wall_s += done.wall_s
        result.cpu_s += done.cpu_s
        result.rss_mb = max(result.rss_mb, done.rss_mb)
        where = f"{workload.name} {label} `{' '.join(command.args[:2])}`"
        check_command(checks, command, where, done.returncode, done.stdout,
                      done.stderr,
                      expect_cached=command.runs if replay else 0)
        if done.returncode != 0:
            sys.stderr.write(f"[rlabench] {where} failed:\n{done.stderr}\n")
        result.texts[index] = stable_text(done.stdout)
        result.replay_texts[index] = stable_text(done.stdout, replay=True)
    return result


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    scratch: Scratch,
    setups: int = SETUPS,
    min_passes: int = MIN_PASSES,
) -> Dict[str, Any]:
    """Set up, then run timed passes for ``seconds``; return the record."""
    checks = Checks()
    commands = workload.commands
    order = workload.ordered(seed)
    cache_dir = scratch.fresh("cache")

    # -- set-up: cold-bytecode import, plus filling the cache for replay --
    setup_raw: List[float] = []
    setup_ref: List[float] = []
    reference: Optional[PassResult] = None
    for attempt in range(setups):
        env = child_env(fresh_source(scratch), cache_dir)
        calib = [calibrate()]
        cold = spawn(["-c", "import repro.cli"], env, scratch.path)
        calib.append(calibrate())
        checks.expect(cold.returncode == 0,
                      f"{workload.name} setup {attempt}: import repro.cli "
                      f"failed: {cold.stderr[-500:]}")
        elapsed = cold.wall_s
        if workload.warm_cache:
            reference = run_pass(workload, order, seed, env, scratch,
                                 cache_dir, checks, f"setup {attempt}")
            elapsed += reference.wall_s
            calib += reference.calib
        setup_raw.append(elapsed)
        setup_ref.append(elapsed * to_ref(calib, 0))

    # -- timed passes until the window is used up --------------------------
    passes: List[PassResult] = []
    window_start = time.perf_counter()
    pass_s = 0.0  # longest pass so far, calibrations included
    while len(passes) < min_passes or (
            time.perf_counter() - window_start + pass_s <= seconds):
        pass_start = time.perf_counter()
        passes.append(run_pass(workload, order, seed, env, scratch, cache_dir,
                               checks, f"pass {len(passes)}",
                               replay=workload.warm_cache))
        pass_s = max(pass_s, time.perf_counter() - pass_start)

    # -- identity: across passes, and between a cold run and its replay ---
    for index, command in enumerate(commands):
        where = f"{workload.name} `{' '.join(command.args[:2])}`"
        check_identical(checks, f"{where} across passes",
                        {f"pass {n}": p.texts[index]
                         for n, p in enumerate(passes)})
        if reference is not None:
            check_identical(checks, f"{where} cold run vs cache replay",
                            {"cold": reference.replay_texts[index],
                             "replay": passes[0].replay_texts[index]})

    wall = summary([p.ref_wall_s for p in passes])
    raw_wall = summary([p.wall_s for p in passes])
    calib_s = statistics.median(c[0] for p in passes for c in p.calib)
    sim_seconds = sum(command.sim_seconds for command in commands)
    return {
        "workload": workload.name,
        "seed": seed,
        "passes": len(passes),
        "end_to_end": {
            "wall_s": {**wall, "unit": "s"},
            "cpu_s": {**summary([p.ref_cpu_s for p in passes]), "unit": "s"},
            "peak_rss_mb": {**summary([p.rss_mb for p in passes]),
                            "unit": "MiB"},
            "setup_s": {**summary(setup_ref), "unit": "s"},
            "failed_share": {"value": checks.failed_share, "unit": "ratio"},
        },
        # host seconds as the clock read them, before calibration
        "raw": {
            "wall_s": raw_wall,
            "cpu_s": summary([p.cpu_s for p in passes]),
            "setup_s": summary(setup_raw),
        },
        "derived": {
            "calib_s": calib_s,
            "norm_wall": raw_wall["value"] / calib_s,
            "sim_s_per_host_s": sim_seconds / wall["value"],
        },
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.failures},
        "result_digest": digest([passes[0].replay_texts[i]
                                 for i in range(len(commands))]),
    }
