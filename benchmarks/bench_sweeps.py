"""Sensitivity sweeps (beyond the paper's single operating point).

Three knobs around the §5 setup, all on the symmetric restricted topology
where near-absolute fairness is the expected outcome:

* receiver count (the ``n`` of the Theorem bounds),
* gateway buffer size,
* absolute bottleneck speed.

Asserts the essential-fairness verdict at every sweep point.
"""

from __future__ import annotations

from _scale import bench_duration, bench_warmup
from repro.experiments.sweeps import format_sweep, sweep
from repro.runtime import default_workers


def test_receiver_count_sweep():
    rows = sweep("n_receivers", (2, 4, 8), duration=bench_duration(),
                 warmup=bench_warmup(), workers=default_workers())
    print("\n" + format_sweep(rows, "n_receivers"))
    for row in rows:
        assert row["fair"], f"unfair at n={row['n_receivers']}: {row}"
    # symmetric topology: the ratio must not blow up with n even though
    # the theorem's upper bound grows as 2n
    assert all(row["ratio"] < 4.0 for row in rows)


def test_buffer_size_sweep():
    rows = sweep("buffer_pkts", (10, 20, 40), duration=bench_duration(),
                 warmup=bench_warmup(), workers=default_workers())
    print("\n" + format_sweep(rows, "buffer_pkts"))
    for row in rows:
        assert row["fair"], f"unfair at buffer={row['buffer_pkts']}: {row}"


def test_share_sweep():
    rows = sweep("share_pps", (50.0, 100.0, 200.0), duration=bench_duration(),
                 warmup=bench_warmup(), workers=default_workers())
    print("\n" + format_sweep(rows, "share_pps"))
    for row in rows:
        assert row["fair"], f"unfair at share={row['share_pps']}: {row}"
    # throughput scales with the configured share
    assert rows[-1]["rla_pps"] > rows[0]["rla_pps"]