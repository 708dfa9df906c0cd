"""rlabench: end-to-end and per-layer benchmark of the ``repro-rla`` CLI.

    python3 benchmarks/rlabench/run.py --seed 1                # all six, timed
    python3 benchmarks/rlabench/run.py --seed 1 --trace both   # + traced run
    python3 benchmarks/rlabench/run.py --workload pool_cold --seed 3 \\
            --seconds 8 --trace 0                              # one, as the driver runs it
    python3 benchmarks/rlabench/run.py --selftest

``--trace 0`` runs timed passes (tracing off) and reports the end-to-end
metrics; ``--trace 1`` runs the in-process traced run and reports the
per-layer metrics; ``both`` does one after the other.  Every metric is
printed by name with its unit, the record goes to ``out/`` as JSON (spans
to ``trace.json`` beside it), and with ``--workload`` the last line of
stdout is the one-object summary the benchmark driver reads.  The exit
code is non-zero when any output check failed — except with ``--workload``,
where the summary's ``correct`` field carries that verdict and a non-zero
exit means the benchmark itself could not run.

See README.md in this directory for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import harness  # noqa: E402  (after the bytecode switch, deliberately)
from checks import Checks  # noqa: E402
from workloads import BY_NAME, WORKLOADS, Command, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_contract() -> Dict[str, Any]:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> Dict[str, Any]:
    """Everything needed to judge whether two records are comparable."""
    try:
        revision: Optional[str] = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=harness.ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "pool_workers": 2,
        "bytecode": "package cold at each set-up, warm in timed passes",
        "calib_ref_s": harness.CALIB_REF_S,
    }


def process_costs(seed: int, scratch: harness.Scratch, scale: float,
                  checks: Checks) -> Dict[str, float]:
    """Per-layer values that do not depend on the workload: what an
    interpreter start costs, and the micro-drivers' unit costs."""
    import micro

    env = harness.child_env(harness.fresh_source(scratch),
                            scratch.fresh("cache"))
    # cli.import_s: what every command pays before it does anything — a
    # fresh interpreter importing repro.cli with its bytecode cached
    harness.spawn(["-c", "import repro.cli"], env, scratch.path)
    warm = harness.spawn(["-c", "import repro.cli"], env, scratch.path)
    checks.expect(warm.returncode == 0, "import repro.cli failed")
    values = {"cli.import_s": warm.wall_s}

    # first call in this process, so the source tree is really hashed
    from repro.runtime.spec import code_version
    start = time.perf_counter()
    code_version()
    values["runtime.code_version_s"] = time.perf_counter() - start

    calib = [harness.calibrate()[0]]
    values.update(micro.run_all(scale, seed, scratch.path, checks))
    calib.append(harness.calibrate()[0])
    values["calib_s"] = min(calib)
    return values


def traced(workload: Workload, seed: int, scratch: harness.Scratch,
           shared: Dict[str, float], shared_checks: Checks) -> Dict[str, Any]:
    """The traced run of one workload: per-layer values, checks, spans."""
    import tracing

    checks = Checks(shared_checks.attempted, list(shared_checks.failures))
    values, tracer = tracing.traced_run(workload, seed,
                                        scratch.fresh("cache"), checks)
    pass_start = tracer.spans[0][1]
    return {
        "per_layer": {**shared, **values},
        "layer_table": tracing.layer_table(tracer),
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.failures},
        "spans": [[name, begin - pass_start, end - pass_start, parent, run]
                  for name, begin, end, parent, run in tracer.spans],
    }


def report(record: Dict[str, Any], contract: Dict[str, Any]) -> str:
    """Every metric of one workload record, by name, with its unit."""
    lines = [f"== {record['workload']} (seed {record['seed']})"]
    if "end_to_end" in record:
        checks = record["checks"]
        lines.append(f"   {record['passes']} timed passes, "
                     f"{checks['attempted']} output checks, "
                     f"{checks['failed']} failed")
        for name, cell in record["end_to_end"].items():
            extra = ""
            if "q1" in cell:
                extra = (f"  (min {cell['min']:.4f}, q1 {cell['q1']:.4f}, "
                         f"q3 {cell['q3']:.4f}, n {cell['n']}")
                raw = record["raw"].get(name)
                extra += f"; as clocked {raw['value']:.4f})" if raw else ")"
            lines.append(f"   {name:<14}{cell['value']:>12.4f} "
                         f"{cell['unit']:<6}{extra}")
        derived = record["derived"]
        lines.append(f"   {'norm_wall':<14}{derived['norm_wall']:>12.2f} "
                     f"calib   (wall as clocked / calib_s, not gated)")
        lines.append(f"   {'calib_s':<14}{derived['calib_s']:>12.4f} s")
        lines.append(f"   {'sim_s/host_s':<14}"
                     f"{derived['sim_s_per_host_s']:>12.2f} 1       "
                     f"(simulated seconds per wall_s, not gated)")
        lines.append(f"   result_digest {record['result_digest']}")
    if "traced" in record:
        run = record["traced"]
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        lines.append(f"   traced pass, self time per layer "
                     f"({run['checks']['attempted']} checks, "
                     f"{run['checks']['failed']} failed):")
        lines.append(run["layer_table"])
        for name in sorted(run["per_layer"]):
            lines.append(f"   {name:<30}{run['per_layer'][name]:>16.6g} "
                         f"{units.get(name, '?')}")
    failures = (record.get("checks", {}).get("failures", [])
                + record.get("traced", {}).get("checks", {}).get("failures", []))
    lines += [f"   FAILED CHECK: {failure}" for failure in failures]
    return "\n".join(lines)


def driver_line(record: Dict[str, Any], contract: Dict[str, Any],
                trace: str) -> str:
    """The summary object the benchmark driver reads from the last line."""
    if trace == "1":
        run = record["traced"]
        attempted, failed = run["checks"]["attempted"], run["checks"]["failed"]
        metrics = {m["name"]: {"value": run["per_layer"].get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in contract["per_layer"]}
    else:
        attempted = record["checks"]["attempted"]
        failed = record["checks"]["failed"]
        metrics = {m["name"]: {"value": record["end_to_end"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in contract["end_to_end"]}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run(workloads: List[Workload], seed: int, seconds: float, trace: str,
        scale: float = 1.0, **measure_options: Any) -> List[Dict[str, Any]]:
    """Timed and/or traced run of each workload; one record per workload.

    ``scale`` shrinks the simulated durations and the micro-drivers'
    operation counts (the self-test's tiny mode).  Every timed pass runs
    before the first traced one: the traced run imports the simulator into
    this process, and a child's ``ru_maxrss`` starts from its parent's size
    at fork, so a grown harness would show up as the children's peak RSS
    (and slow the calibration kernel through garbage collection).
    """
    sized = [w.scaled(scale) if scale != 1.0 else w for w in workloads]
    records: List[Dict[str, Any]] = [{"workload": w.name, "seed": seed}
                                     for w in workloads]
    with harness.Scratch() as scratch:
        if trace != "1":
            for record, workload in zip(records, sized):
                record.update(harness.measure(workload, seed, seconds,
                                              scratch, **measure_options))
        if trace != "0":
            shared_checks = Checks()
            shared = process_costs(seed, scratch, scale, shared_checks)
            for record, workload in zip(records, sized):
                record["traced"] = traced(workload, seed, scratch, shared,
                                          shared_checks)
    return records


def failed_checks(records: List[Dict[str, Any]]) -> int:
    return sum(record.get("checks", {}).get("failed", 0)
               + record.get("traced", {}).get("checks", {}).get("failed", 0)
               for record in records)


def selftest(contract: Dict[str, Any]) -> int:
    """Tiny durations, one pass: the harness checks itself in half a minute."""
    everything = list(WORKLOADS)
    # 0.7 is the smallest scale at which every TCP flow of the figure
    # tables has started; the traced run checks no throughput
    timed = run(everything, seed=1, seconds=0.0, trace="0", scale=0.7,
                setups=1, min_passes=1)
    traced_runs = run(everything, seed=1, seconds=0.0, trace="1", scale=0.3)
    e2e = {m["name"] for m in contract["end_to_end"]} | {"failed_share"}
    layer = {m["name"] for m in contract["per_layer"]}
    for record in timed + traced_runs:
        print(report(record, contract))
        # span parents, self times >= 0 and the 5 % rule are output checks
        assert failed_checks([record]) == 0, record["workload"]
    for record in timed:
        assert set(record["end_to_end"]) == e2e, record["end_to_end"].keys()
    for record in traced_runs:
        assert set(record["traced"]["per_layer"]) == layer, (
            set(record["traced"]["per_layer"]) ^ layer)
    names = [m["name"] for m in contract["workloads"]]
    assert names == [w.name for w in WORKLOADS], names
    assert all(NAME.fullmatch(name) for name in names + sorted(e2e | layer))

    # a command the CLI rejects must show up as a failed share above zero
    broken = Workload("malformed", "fig7 has no case 9",
                      (Command(("fig7", "--cases", "9"), 0.4, 0.2, runs=1),))
    record = run([broken], seed=1, seconds=0.0, trace="0", setups=1,
                 min_passes=1)[0]
    assert record["end_to_end"]["failed_share"]["value"] > 0, record
    print("selftest ok")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default=None,
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window of the timed passes "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=["0", "1", "both"], default="0",
                        help="0: timed passes; 1: traced run; both")
    parser.add_argument("--out", type=Path, default=None,
                        help="result JSON (default: out/result-seed<N>.json)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro" / "cli.py").is_file():
        print(f"rlabench: no program to measure under {harness.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))  # the traced run is in-process
    contract = load_contract()
    if args.selftest:
        return selftest(contract)

    chosen = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    records = run(chosen, args.seed, seconds, args.trace)
    for record in records:
        print(report(record, contract))

    out = args.out or harness.OUT / f"result-seed{args.seed}.json"
    spans = {r["workload"]: r["traced"].pop("spans")
             for r in records if "traced" in r}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"schema": "rlabench/1", "environment": environment(),
                   "seed": args.seed, "seconds": seconds, "claim": None,
                   "workloads": {r["workload"]: r for r in records}},
                  handle, indent=1)
    print(f"result written to {out}")
    if spans:
        with open(out.with_name("trace.json"), "w", encoding="utf-8") as handle:
            json.dump({"span": ["name", "start_s", "end_s", "parent", "run"],
                       "workloads": spans}, handle)
        print(f"spans written to {out.with_name('trace.json')}")
    if args.workload:
        print(driver_line(records[0], contract, args.trace))
    return 1 if failed_checks(records) and not args.workload else 0


if __name__ == "__main__":
    raise SystemExit(main())
