"""The six rlabench workloads: fixed ``repro-rla`` command lines.

A workload is a list of :class:`Command` records; a *pass* issues each of
them once, back to back (closed loop, one client).  Everything a command
needs is in its argv — the simulator under test sees nothing else.

Why the simulator seed is pinned
--------------------------------
The packet simulator's amount of work depends strongly on its seed at
these short horizons (fig7 cases 1+3 at 1.5 simulated seconds executes
67k-96k events across seeds 1-8, because the TCP start offsets are drawn
from U(0, 1) s).  Passing the benchmark's ``--seed`` straight through
would make ten seeds measure ten different workloads, so packet commands
always run ``--seed SIM_SEED``.  The benchmark's own seed still reaches
the program where it cannot change the amount of work: it is the
``--seed`` of the RNG-free fluid commands, and it shuffles the order in
which a pass issues its commands.

Resizing: change ``duration``/``warmup`` below (never the pass count) so
one pass stays near three seconds on the reference box; the measuring
window is ``run_seconds`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

#: ``--seed`` of every packet-simulating command (see module docstring).
SIM_SEED = 1

#: Placeholders replaced by the pass's cache directory and by an interior
#: checkpoint time (the middle of the measured window).
CACHE = "{cache}"
CKPT = "{ckpt}"


@dataclass(frozen=True)
class Command:
    """One ``repro-rla`` invocation and what its output must look like."""

    #: arguments after ``python -m repro.cli`` (no seed / duration / warmup)
    args: Tuple[str, ...]
    duration: float
    warmup: float
    #: independent simulation runs behind the table (rows, cases or cells)
    runs: int
    #: whitespace-token indices of the throughput cells that must be > 0
    #: in each of the ``runs`` data rows; ``None`` marks a figure table,
    #: whose ``thrput`` rows carry one measured value per case instead
    positive: Optional[Tuple[int, ...]] = None
    #: RNG-free command: takes the benchmark's seed instead of SIM_SEED
    seed_free: bool = False

    @property
    def pooled(self) -> bool:
        """True when the command prints the ``--metrics`` runtime footer."""
        return "--metrics" in self.args

    @property
    def audited(self) -> bool:
        return "--audit" in self.args

    @property
    def sim_seconds(self) -> float:
        """Simulated seconds behind the table (the fixed numerator)."""
        return self.runs * (self.duration + self.warmup)

    def argv(self, seed: int, cache_dir: str) -> List[str]:
        """The full argument list for one invocation."""
        fill = {CACHE: cache_dir,
                CKPT: f"{self.warmup + self.duration / 2:g}"}
        out = [fill.get(arg, arg) for arg in self.args]
        out += ["--duration", f"{self.duration:g}",
                "--warmup", f"{self.warmup:g}",
                "--seed", str(seed if self.seed_free else SIM_SEED)]
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Tuple[Command, ...]
    #: set-up fills the cache once; every pass must then replay from it
    warm_cache: bool = False

    def ordered(self, seed: int) -> List[int]:
        """Command indices in the order a pass issues them for ``seed``."""
        order = list(range(len(self.commands)))
        random.Random(seed).shuffle(order)
        return order

    def scaled(self, factor: float) -> "Workload":
        """The same commands at ``factor`` times the simulated duration."""
        return replace(self, commands=tuple(
            replace(c, duration=c.duration * factor, warmup=c.warmup * factor)
            for c in self.commands))


_POOL_COMMANDS = (
    Command(("sweep", "--counts", "2", "3", "4", "6", "8", "12", "16", "24",
             "--workers", "2", "--cache", CACHE, "--metrics"),
            duration=2.0, warmup=0.5, runs=8, positive=(1,)),
    Command(("fig7", "--cases", "1", "2", "3", "4", "5",
             "--workers", "2", "--cache", CACHE,
             "--checkpoint-at", CKPT, "--metrics"),
            duration=1.5, warmup=0.5, runs=5),
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "paper_tables",
        "the paper's own tables (fig7/9/10): engine dispatch, link + "
        "drop-tail/RED gateway, 27-receiver fan-out, TCP SACK, small-group "
        "RLA; runtime, audit, checkpoint and fluid do nothing",
        (
            Command(("fig7", "--cases", "1", "3"), 3.0, 1.0, runs=2),
            Command(("fig9", "--cases", "3"), 3.0, 1.0, runs=1),
            Command(("fig10", "--cases", "1"), 3.0, 1.0, runs=1),
        ),
    ),
    Workload(
        "aqm_audit",
        "CoDel/PIE/byte-RED/adaptive-RED cells with ECN and mixed packet "
        "sizes, generated topologies, churn rebuilds, all under --audit: a "
        "RED-only gain or an audit-off fast path shows as a loss here",
        (
            Command(("scenarios", "grid", "--gateways", "codel", "pie",
                     "red-byte", "red-adaptive", "--mixes", "trimodal",
                     "--spreads", "wide", "--ecn", "both", "--audit"),
                    2.0, 0.5, runs=8, positive=(4,)),
            Command(("scenarios", "run", "waxman-churn", "tree-churn",
                     "--audit"),
                    2.0, 0.5, runs=2, positive=(2,)),
        ),
    ),
    Workload(
        "large_group",
        "the same rla/tcp code at 128-256 receivers: per-ACK aggregates, "
        "fan-out and route construction at n=256 and the memory high-water "
        "mark; a small-group win that is O(n) shows as a loss here",
        (
            # TCP flow i starts at 0.1*i s, so at this horizon only the
            # first few compete: WTCP legitimately reads 0 and is not
            # checked; the 256-way RLA fan-out and ACK implosion are live.
            Command(("sweep", "--counts", "128", "256"), 1.0, 0.5, runs=2,
                    positive=(1,)),
            Command(("scenarios", "run", "tree-large-churn"), 2.0, 0.5,
                    runs=1, positive=(2,)),
        ),
    ),
    Workload(
        "fluid_population",
        "zero packet events: RK4 over few cohorts (population ladder) and "
        "over many bottlenecks (fluid sweep); any packet-path change "
        "predicts no movement here, a faster integrator shows only here",
        (
            Command(("fluid", "scale", "--counts", "1000", "100000",
                     "1000000"), 6.0, 2.0, runs=3, positive=(2, 3),
                    seed_free=True),
            Command(("scenarios", "grid", "--backend", "fluid", "--scale",
                     "25000", "--ecn", "off"), 6.0, 2.0, runs=4,
                    positive=(-6, -5), seed_free=True),
            Command(("sweep", "--backend", "fluid", "--counts", "4", "16"),
                    3.0, 1.0, runs=2, positive=(1, 2),
                    seed_free=True),
        ),
    ),
    Workload(
        "pool_cold",
        "13 short unequal runs over 2 workers into an empty cache: pool "
        "spawn, submit order, result pickling, cache put and in-worker "
        "snapshot capture+save are a visible share of the makespan",
        _POOL_COMMANDS,
    ),
    Workload(
        "cache_warm",
        "the pool_cold commands replayed from the cache set-up filled: "
        "interpreter start, imports, code_version hashing, RunSpec.key, "
        "cache get and table rendering; nothing simulates",
        _POOL_COMMANDS,
        warm_cache=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
