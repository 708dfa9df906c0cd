#!/usr/bin/env python
"""Check the §4 theory against live measurements in one script.

Runs a TCP flow and an RLA session on the restricted topology, extracts
each sender's *measured* congestion probability (window cuts per packet
for TCP; congestion signals per packet for the RLA), and compares the
measured average windows with:

* equation 1 (TCP's PA window),
* the Proposition's bounds (equation 2) for the RLA,
* the closed-form n-receiver window of the drift analysis.

Run:  python examples/theory_check.py [duration_s]
"""

from __future__ import annotations

import sys

from repro.experiments.sweeps import RestrictedRunSpec, run_symmetric_spec
from repro.models import window_ratio_bounds
from repro.models.rla_drift import rla_window_independent
from repro.models.tcp_formula import pa_window
from repro.topology.restricted import RestrictedSpec

N = 3
WARMUP = 20.0


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 150.0
    row = run_symmetric_spec(RestrictedRunSpec(
        RestrictedSpec(mu_pps=[200.0] * N), duration=duration, warmup=WARMUP,
        seed=29))
    tcps = row["tcp"]

    print(f"measured over {duration:.0f}s ({N} branches, 200 pkt/s each)\n")

    # --- TCP vs equation 1 ------------------------------------------------
    print("TCP flows vs eq 1 (W = sqrt(2(1-p)/p)):")
    for index, report in enumerate(tcps):
        p = report["window_cuts"] / max(report["packets_sent"], 1)
        if p <= 0:
            continue
        predicted = pa_window(p)
        print(f"  tcp-{index}: p={p:.4f}  measured cwnd {report['mean_cwnd']:5.1f}"
              f"  eq1 predicts {predicted:5.1f}"
              f"  ({report['mean_cwnd']/predicted:5.2f}x)")

    # --- RLA vs the drift analysis ------------------------------------------
    # Compare measured-to-measured (equation 4's window ratio): the PA
    # approximation overestimates time-average windows by a common factor
    # (visible in the TCP rows above), which a ratio cancels.
    rla = row["rla"]
    p_c = rla["congestion_signals"] / max(rla["packets_sent"], 1) / N
    closed = rla_window_independent([min(max(p_c, 1e-4), 0.049)] * N)
    mean_tcp_cwnd = sum(report["mean_cwnd"] for report in tcps) / len(tcps)
    ratio = rla["mean_cwnd"] / mean_tcp_cwnd
    lower, upper = window_ratio_bounds(N)
    print(f"\nRLA: per-receiver congestion probability p={p_c:.4f}")
    print(f"  measured cwnd {rla['mean_cwnd']:.1f} "
          f"(PA closed form at this p: {closed:.1f})")
    print(f"  eq 4 window ratio W_RLA/W_TCP = {ratio:.2f}, bounds "
          f"({lower:.2f}, {upper:.2f})"
          f"  {'WITHIN' if lower < ratio < upper else 'OUTSIDE'}")
    print(f"  randomized cuts / signals = "
          f"{rla['window_cuts'] - rla['forced_cuts']}/{rla['congestion_signals']}"
          f" (listening target 1/{rla['num_trouble']})")


if __name__ == "__main__":
    main()
