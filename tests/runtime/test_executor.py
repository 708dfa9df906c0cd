"""Executor behaviour: fan-out, caching, retry, failure reporting."""

import os
import time

import pytest

from repro.errors import SimulationError
from repro.runtime import ResultCache, RunSpec, metrics_table, run_specs

ECHO = "repro.runtime._testing:echo"
BOOM = "repro.runtime._testing:boom"
FLAKY = "repro.runtime._testing:flaky"
MISCONFIGURED = "repro.runtime._testing:misconfigured"
HANG = "repro.runtime._testing:hang"
SNOOZE = "repro.runtime._testing:snooze"


def _echo_specs(n):
    return [RunSpec(ECHO, {"x": i, "events": 10 * (i + 1)}) for i in range(n)]


def test_serial_and_parallel_agree_in_order():
    specs = _echo_specs(5)
    serial = run_specs(specs, workers=1)
    parallel = run_specs(specs, workers=3)
    assert [o.result["params"] for o in serial] == \
           [o.result["params"] for o in parallel]
    assert [o.spec for o in parallel] == specs
    assert all(o.ok and not o.cached for o in parallel)


def test_parallel_actually_uses_other_processes():
    outs = run_specs(_echo_specs(4), workers=4)
    pids = {o.result["pid"] for o in outs}
    # at least one run landed off the parent process
    assert any(pid != os.getpid() for pid in pids)


def test_metrics_come_from_sim_stats():
    [out] = run_specs([RunSpec(ECHO, {"x": 0, "events": 30})], workers=1)
    assert out.metrics.events == 30
    assert out.metrics.drops == 1
    assert out.metrics.peak_queue_depth == 2
    assert out.metrics.wall_time_s >= 0.0
    table = metrics_table([out.metrics])
    assert "ev/s" in table and "1 runs" in table


def test_cache_hit_skips_execution(tmp_path):
    cache = ResultCache(tmp_path, code="c1")
    specs = _echo_specs(3)
    first = run_specs(specs, workers=2, cache=cache)
    second = run_specs(specs, workers=2, cache=cache)
    assert all(not o.cached for o in first)
    assert all(o.cached for o in second)
    # cached outcomes replay the stored result and original metrics
    for a, b in zip(first, second):
        assert a.result["params"] == b.result["params"]
        assert b.metrics.cached and b.attempts == 0
    # one changed point only misses that point
    changed = [specs[0], RunSpec(ECHO, {"x": 99, "events": 20}), specs[2]]
    third = run_specs(changed, workers=2, cache=cache)
    assert [o.cached for o in third] == [True, False, True]


def test_failed_run_is_cached_never(tmp_path):
    cache = ResultCache(tmp_path, code="c1")
    with pytest.raises(SimulationError):
        run_specs([RunSpec(BOOM, {"why": "nope"})], workers=1,
                  cache=cache, retries=0)
    assert len(cache) == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_failure_retry_succeeds(tmp_path, workers):
    marker = str(tmp_path / f"marker-{workers}")
    out = run_specs(
        [RunSpec(FLAKY, {"marker": marker})], workers=workers, retries=2,
    )[0]
    assert out.ok
    assert out.result == "recovered"
    assert out.attempts == 2
    assert out.metrics.attempts == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_exhausted_retries_reported_not_dropped(workers):
    specs = [RunSpec(ECHO, {"x": 1}), RunSpec(BOOM, {"why": "always"})]
    outcomes = run_specs(specs, workers=workers, retries=1, strict=False)
    assert len(outcomes) == 2
    assert outcomes[0].ok
    failed = outcomes[1]
    assert not failed.ok
    assert failed.attempts == 2
    assert "boom" in failed.error
    assert failed.result is None
    # strict mode surfaces the same failure as an exception
    with pytest.raises(SimulationError, match="boom"):
        run_specs(specs, workers=workers, retries=1, strict=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_repro_error_is_not_retried(tmp_path, workers):
    # a ReproError is a function of the spec: retrying re-raises it
    log = tmp_path / "attempts.log"
    specs = [RunSpec(MISCONFIGURED, {"log": str(log)}),
             RunSpec(BOOM, {"why": "always"})]
    refused, crashed = run_specs(specs, workers=workers, retries=3,
                                 strict=False)
    assert not refused.ok and "ConfigurationError" in refused.error
    assert refused.attempts == refused.metrics.attempts == 1
    assert log.read_text() == "attempted\n"
    assert crashed.attempts == 4  # any other exception keeps its retries
    with pytest.raises(SimulationError) as raised:
        run_specs(specs, workers=workers, retries=3)
    assert "(attempts: 1): " in str(raised.value)
    assert "(attempts: 4): " in str(raised.value)


def test_hung_worker_is_killed_and_reported():
    start = time.monotonic()
    outcomes = run_specs(
        [RunSpec(HANG, {"seconds": 60.0})],
        workers=2, timeout=1.0, retries=0, strict=False,
    )
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "hung worker was not torn down"
    assert not outcomes[0].ok
    assert "hung" in outcomes[0].error


def test_workers_overlap_wall_clock():
    # Four 0.7 s sleep-bound runs over four workers must take well under
    # the 2.8 s a serial loop would — the executor genuinely overlaps
    # runs (sleep-bound so the check holds on single-core hosts too).
    specs = [RunSpec(SNOOZE, {"seconds": 0.7, "i": i}) for i in range(4)]
    start = time.monotonic()
    outcomes = run_specs(specs, workers=4)
    elapsed = time.monotonic() - start
    assert all(o.ok for o in outcomes)
    assert elapsed < 0.7 * len(specs) / 2, (
        f"no overlap: 4 parallel 0.7s runs took {elapsed:.2f}s")


def test_invalid_retries_rejected():
    with pytest.raises(SimulationError):
        run_specs(_echo_specs(1), retries=-1)


# ----------------------------------------------------------------------
# mid-run checkpointing through the executor
# ----------------------------------------------------------------------
def _tiny_scenario_specs(n=2):
    from repro.lifecycle import runspec
    from repro.scenarios.catalog import get_scenario

    return [runspec(get_scenario("tree-churn", duration=4.0,
                                 warmup=1.0, seed=seed))
            for seed in range(1, n + 1)]


def test_checkpoint_at_writes_snapshots_and_keeps_results(tmp_path):
    import pickle

    from repro.checkpoint import load

    specs = _tiny_scenario_specs()
    plain = run_specs(specs, workers=1)
    checkpointed = run_specs(specs, workers=1, checkpoint_at=2.0,
                             checkpoint_dir=str(tmp_path))
    assert (pickle.dumps([o.result for o in checkpointed])
            == pickle.dumps([o.result for o in plain]))
    snapshots = sorted(tmp_path.glob("*.t2.ckpt"))
    assert len(snapshots) == len(specs)
    assert all(load(path).sim_time == 2.0 for path in snapshots)


def test_checkpoint_snapshots_land_in_cache_by_default(tmp_path):
    cache = ResultCache(tmp_path)
    [spec] = _tiny_scenario_specs(1)
    run_specs([spec], workers=1, cache=cache, checkpoint_at=2.0)
    assert cache.snapshot_path(spec, 2.0).exists()


def test_checkpoint_at_without_destination_is_an_error():
    with pytest.raises(SimulationError, match="somewhere to write"):
        run_specs(_tiny_scenario_specs(1), workers=1, checkpoint_at=2.0)


def test_checkpoint_at_requires_registered_runner(tmp_path):
    # ECHO has no checkpoint runner; the failure must say so.
    spec = RunSpec(ECHO, {"x": 0, "events": 10})
    with pytest.raises(SimulationError, match="checkpoint"):
        run_specs([spec], workers=1, checkpoint_at=1.0,
                  checkpoint_dir=str(tmp_path), retries=0)
