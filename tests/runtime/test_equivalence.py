"""Parallel-vs-serial equivalence on the real experiment stack.

The acceptance property of the runtime layer: fanning runs out over a
process pool (or replaying them from the cache) yields per-run reports
*byte-identical* to the serial loop — compared here as pickles of each
run's report, the strongest practical notion of "same result".
"""

import pickle

from repro.experiments.figures import run_figure
from repro.experiments.sweeps import sweep_receiver_count
from repro.runtime import ResultCache


def _bytes(obj):
    return pickle.dumps(obj)


def test_sweep_parallel_matches_serial_per_run():
    kwargs = dict(counts=(2, 3), duration=6.0, warmup=3.0, seed=2)
    serial = sweep_receiver_count(**kwargs)
    parallel = sweep_receiver_count(workers=2, **kwargs)
    assert [_bytes(row) for row in serial] == [_bytes(row) for row in parallel]


def test_sweep_cached_matches_fresh(tmp_path):
    kwargs = dict(counts=(2,), duration=6.0, warmup=3.0, seed=2)
    cache = ResultCache(tmp_path)
    fresh = sweep_receiver_count(workers=2, cache=cache, **kwargs)
    outs = []
    replay = sweep_receiver_count(workers=2, cache=cache, outcomes=outs,
                                  **kwargs)
    assert all(o.cached for o in outs)
    assert _bytes(fresh) == _bytes(replay)
    assert _bytes(fresh[0]) == _bytes(sweep_receiver_count(**kwargs)[0])


def test_fig7_parallel_matches_serial_per_case():
    kwargs = dict(duration=6.0, warmup=3.0, seed=3, cases=(1, 5))
    serial = run_figure("fig7", **kwargs)
    parallel = run_figure("fig7", workers=2, **kwargs)
    assert list(serial) == list(parallel)
    for case in serial:
        assert _bytes(serial[case]) == _bytes(parallel[case])
        # engine stats rode along with the result
        assert parallel[case].stats["events"] > 0
        assert parallel[case].stats["peak_queue_depth"] > 0
