"""Compare two rlabench result files: ``compare.py A.json B.json``.

For each workload and end-to-end metric: both medians, the ratio with its
base, the bound from ``BENCHMARK.json`` and a verdict —

* ``worse`` / ``better``: B's median differs from A's by more than the
  bound, in that direction;
* ``unresolved``: it does not, but the two sides' quartile ranges are wider
  than the bound and the runs overlap, so "no change" is not shown either;
* ``ok``: within the bound and resolved.

Counts (``sim.events``, ``net.packets``, ``result_digest``, ...) must match
exactly; ``machine drifted`` is flagged when the calibration kernel's time
differs by more than 10 %.  Exit code 1 on any ``worse`` or count mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float,
            lower_is_better: bool) -> str:
    base, other = a["value"], b["value"]
    change = (other - base) / base
    if not lower_is_better:
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    if "q1" not in a or "q1" not in b:
        return "ok"
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
    overlap = (min(a["samples"]) <= max(b["samples"])
               and min(b["samples"]) <= max(a["samples"]))
    return "unresolved" if spread > bound and overlap else "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            contract: Dict[str, Any]) -> List[str]:
    """Report lines; lines starting with ``!`` make the comparison fail."""
    lines: List[str] = []
    for name in a["workloads"]:
        left, right = a["workloads"][name], b["workloads"].get(name)
        if right is None:
            lines.append(f"! {name}: missing from B")
            continue
        lines.append(f"{name}")
        if "end_to_end" in left and "end_to_end" in right:
            drift = (right["derived"]["calib_s"] / left["derived"]["calib_s"])
            if abs(drift - 1.0) > 0.10:
                lines.append(f"  machine drifted: calib_s B/A = {drift:.3f} "
                             f"(base {left['derived']['calib_s']:.4f} s)")
            for metric in contract["end_to_end"]:
                key, bound = metric["name"], metric["bound"]
                cell_a, cell_b = left["end_to_end"][key], right["end_to_end"][key]
                result = verdict(cell_a, cell_b, bound,
                                 metric["better"] == "lower")
                mark = "!" if result == "worse" else " "
                lines.append(
                    f"{mark} {key:<12} A {cell_a['value']:>10.4f}  "
                    f"B {cell_b['value']:>10.4f} {metric['unit']:<4} "
                    f"B/A {cell_b['value'] / cell_a['value']:.3f} "
                    f"(base {cell_a['value']:.4f})  bound {bound:.0%}  {result}")
            share_a = left["end_to_end"]["failed_share"]["value"]
            share_b = right["end_to_end"]["failed_share"]["value"]
            mark = "!" if share_b > share_a else " "
            lines.append(f"{mark} failed_share A {share_a:.4f}  B {share_b:.4f}  "
                         f"(bound 0, absolute)")
            same = left["result_digest"] == right["result_digest"]
            lines.append(f"{' ' if same else '!'} result_digest "
                         f"{'identical' if same else 'DIFFERS'}: simulated "
                         f"statistics are {'' if same else 'not '}the same")
        if "traced" in left and "traced" in right:
            units = {m["name"]: m["unit"] for m in contract["per_layer"]}
            for key, value in left["traced"]["per_layer"].items():
                if units.get(key) in ("count", "B"):
                    other = right["traced"]["per_layer"].get(key)
                    if other != value:
                        lines.append(f"! count {key}: A {value}  B {other}")
            lines.append("  counts compared exactly")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    lines = compare(a, b, contract)
    print("\n".join(lines))
    return 1 if any(line.startswith("!") for line in lines) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
