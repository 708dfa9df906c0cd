#!/usr/bin/env python
"""RED vs drop-tail gateways for the same RLA/TCP sharing scenario.

The paper proves tighter essential-fairness bounds under RED (Theorem I:
a=1/3, b=sqrt(3n)) than under drop-tail (Theorem II: a=1/4, b=2n) because
RED equalizes the loss *probability* seen by all connections, while
drop-tail only equalizes the congestion *frequency* — and only once phase
effects are eliminated.  This example runs the same three-branch scenario
through both gateway types and prints the two verdicts side by side.

Run:  python examples/red_vs_droptail.py
"""

from __future__ import annotations

from repro.experiments.sweeps import RestrictedRunSpec, run_symmetric_spec
from repro.models import check_essential_fairness, essential_fairness_bounds
from repro.topology.restricted import RestrictedSpec

WARMUP, DURATION = 20.0, 120.0
BRANCHES = [200.0, 200.0, 200.0]   # pkt/s, one TCP each


def run(gateway: str) -> dict:
    # §3.1: the run's default endpoints jitter on drop-tail, not on RED.
    spec = RestrictedRunSpec(RestrictedSpec(mu_pps=BRANCHES, gateway=gateway),
                             duration=DURATION, warmup=WARMUP, seed=11)
    row = run_symmetric_spec(spec)
    return {"rla": row["rla"],
            "tcp_rates": [report["throughput_pps"] for report in row["tcp"]]}


def main() -> None:
    for gateway in ("droptail", "red"):
        outcome = run(gateway)
        rla = outcome["rla"]
        wtcp = min(outcome["tcp_rates"])
        n = max(rla["num_trouble"], 1)
        a, b = essential_fairness_bounds(n, gateway)
        verdict = check_essential_fairness(rla["throughput_pps"], wtcp, n,
                                           gateway)
        print(f"--- {gateway} (theorem bounds a={a:.2f}, b={b:.2f}) ---")
        print(f"RLA : {rla['throughput_pps']:7.1f} pkt/s, "
              f"cwnd {rla['mean_cwnd']:5.1f}, "
              f"cuts {rla['window_cuts']} of {rla['congestion_signals']} signals")
        print(f"TCPs: {', '.join(f'{rate:.1f}' for rate in outcome['tcp_rates'])}"
              f" pkt/s")
        print(f"{verdict}\n")


if __name__ == "__main__":
    main()
