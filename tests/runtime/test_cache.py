"""On-disk result cache: hits, misses, invalidation, atomicity."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import ResultCache, RunMetrics, RunSpec

ECHO = "repro.runtime._testing:echo"


def _metrics(label="m"):
    return RunMetrics(label=label, wall_time_s=0.5, events=100)


def test_cache_path_must_be_a_directory(tmp_path):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("occupied")
    with pytest.raises(ConfigurationError, match="not a directory"):
        ResultCache(not_a_dir)


def test_miss_then_hit_roundtrip(tmp_path):
    cache = ResultCache(tmp_path, code="c1")
    spec = RunSpec(ECHO, {"x": 1})
    assert cache.get(spec) is None
    cache.put(spec, {"answer": 42}, _metrics())
    entry = cache.get(spec)
    assert entry is not None
    assert entry.result == {"answer": 42}
    assert entry.metrics.events == 100
    assert (cache.hits, cache.misses) == (1, 1)
    assert len(cache) == 1
    assert spec in cache


def test_different_spec_misses(tmp_path):
    cache = ResultCache(tmp_path, code="c1")
    cache.put(RunSpec(ECHO, {"x": 1}), "one", _metrics())
    assert cache.get(RunSpec(ECHO, {"x": 2})) is None


def test_code_version_invalidates(tmp_path):
    spec = RunSpec(ECHO, {"x": 1})
    ResultCache(tmp_path, code="old").put(spec, "stale", _metrics())
    assert ResultCache(tmp_path, code="new").get(spec) is None


def test_corrupt_entry_is_a_miss_and_evicted(tmp_path):
    cache = ResultCache(tmp_path, code="c1")
    spec = RunSpec(ECHO, {"x": 1})
    cache.put(spec, "good", _metrics())
    entry_path = cache._entry_path(spec)
    entry_path.write_bytes(b"not a pickle")
    assert cache.get(spec) is None
    assert not entry_path.exists()


def test_clear(tmp_path):
    cache = ResultCache(tmp_path, code="c1")
    for x in range(3):
        cache.put(RunSpec(ECHO, {"x": x}), x, _metrics())
    assert cache.clear() == 3
    assert len(cache) == 0


def test_no_stray_temp_files(tmp_path):
    cache = ResultCache(tmp_path, code="c1")
    cache.put(RunSpec(ECHO, {"x": 1}), "v", _metrics())
    assert list(tmp_path.glob("*.tmp")) == []


# ----------------------------------------------------------------------
# orphaned temp-file sweep (crash between open and rename)
# ----------------------------------------------------------------------
def _orphan(tmp_path, name, age_seconds):
    """Plant a temp file whose mtime is age_seconds in the past."""
    import os
    import time

    path = tmp_path / name
    path.write_bytes(b"partial write from a dead process")
    stamp = time.time() - age_seconds
    os.utime(path, (stamp, stamp))
    return path


def test_init_sweeps_stale_orphaned_tmp_files(tmp_path):
    # Regression: a writer killed between mkstemp() and os.replace()
    # leaves an anonymous .tmp file that no later reader ever trusted —
    # but nothing ever deleted it either, so every crash permanently
    # leaked a file into the cache directory.
    stale = _orphan(tmp_path, "deadbeef.tmp", age_seconds=7200)
    cache = ResultCache(tmp_path, code="c1")
    assert not stale.exists()
    assert cache.swept_tmp == 1


def test_init_leaves_fresh_tmp_files_alone(tmp_path):
    # A sibling process may be mid-put right now: its seconds-old temp
    # file must never be raced.
    fresh = _orphan(tmp_path, "inflight.tmp", age_seconds=5)
    cache = ResultCache(tmp_path, code="c1")
    assert fresh.exists()
    assert cache.swept_tmp == 0


def test_sweep_ignores_real_entries(tmp_path):
    cache = ResultCache(tmp_path, code="c1")
    spec = RunSpec(ECHO, {"x": 1})
    cache.put(spec, "keep", _metrics())
    _orphan(tmp_path, "old.tmp", age_seconds=7200)
    again = ResultCache(tmp_path, code="c1")
    assert again.swept_tmp == 1
    assert again.get(spec) is not None


def test_crash_during_put_leaves_no_trusted_state(tmp_path, monkeypatch):
    # Simulate the writer dying after its temp file is written but before
    # it is published: put() must propagate, remove its own temp file, and
    # never publish the entry.
    import os

    cache = ResultCache(tmp_path, code="c1")
    spec = RunSpec(ECHO, {"x": 1})

    def exploding_replace(*args, **kwargs):
        raise RuntimeError("simulated crash mid-write")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(RuntimeError):
        cache.put(spec, "half", _metrics())
    monkeypatch.undo()
    assert list(tmp_path.glob("*.tmp")) == []
    assert cache.get(spec) is None  # nothing was published


def test_snapshot_path_is_content_addressed(tmp_path):
    cache = ResultCache(tmp_path, code="c1")
    a = cache.snapshot_path(RunSpec(ECHO, {"x": 1}), 15.0)
    b = cache.snapshot_path(RunSpec(ECHO, {"x": 1}), 15.0)
    c = cache.snapshot_path(RunSpec(ECHO, {"x": 2}), 15.0)
    d = cache.snapshot_path(RunSpec(ECHO, {"x": 1}), 30.0)
    assert a == b
    assert len({a, c, d}) == 3
    assert a.name.endswith(".t15.ckpt")


def test_clear_removes_snapshots_too(tmp_path):
    cache = ResultCache(tmp_path, code="c1")
    cache.put(RunSpec(ECHO, {"x": 1}), "v", _metrics())
    cache.snapshot_path(RunSpec(ECHO, {"x": 1}), 5.0).write_bytes(b"ckpt")
    assert cache.clear() == 2
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# corrupt entries: a miss, never a traceback or a silently wrong row
# ----------------------------------------------------------------------
#: A packet sweep point and its row, the commonest cached result.
SWEEP_ROW = {"n_receivers": 2, "share_pps": 100.0, "buffer_pkts": 20,
             "rla_pps": 71.0, "rla_cwnd": 12.43553276183274,
             "wtcp_pps": 100.0, "ratio": 0.71, "fair": True, "lower": 0.25,
             "upper": 4.0, "num_trouble": 2, "window_cuts": 3, "signals": 3,
             "sim_stats": {"events": 8798, "drops": 74,
                           "peak_queue_depth": 20, "sim_time": 3}}


def _flip(seed):
    """Flip one bit, drawn from ``seed``, within 800 bytes of the file's
    end: the same byte of the pickled entry whatever precedes it."""
    import random

    def corrupt(data):
        rng = random.Random(seed)
        back, bit = rng.randrange(1, 800), rng.randrange(8)
        data[len(data) - back] ^= 1 << bit
        return data
    return corrupt


@pytest.mark.parametrize("corrupt", [
    # an entry that was read without a digest: this flip raised
    # UnicodeDecodeError out of get(), which the CLI showed as a traceback
    _flip(8),
    # ... and this one unpickled cleanly into n_receivers 6 instead of 2,
    # a different table printed with exit 0
    _flip(61),
    lambda data: data[:len(data) // 2],
], ids=["flip-traceback", "flip-table", "truncation"])
def test_corrupt_entry_is_a_miss_never_a_traceback_or_a_wrong_row(
        corrupt, tmp_path):
    from repro.experiments.sweeps import symmetric_point
    from repro.lifecycle import runspec
    from repro.runtime.metrics import build_metrics

    spec = runspec(symmetric_point(n_receivers=2, share_pps=100.0,
                                   buffer_pkts=20, duration=2.0, warmup=1.0,
                                   seed=1, gateway="droptail"))
    cache = ResultCache(tmp_path, code="c1")
    cache.put(spec, SWEEP_ROW, build_metrics(spec.describe(), 0.25, SWEEP_ROW))
    entry_path = cache._entry_path(spec)
    entry_path.write_bytes(bytes(corrupt(bytearray(entry_path.read_bytes()))))
    assert cache.get(spec) is None
    assert not entry_path.exists()
    assert (cache.hits, cache.misses) == (0, 1)
