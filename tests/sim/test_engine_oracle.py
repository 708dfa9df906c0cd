"""The engine against its reference copy (``reference.py``).

PR 20 gave the engine a handle-free scheduling form (``Simulator.post``:
the queue entry carries the callback, no :class:`Event` is built unless a
hook is watching; ``post_at`` is its absolute-time form) and moved every
call site that discarded its handle onto it.  Nothing simulated may move:
sequence numbers are allocated at the same points, so the ``(time, seq)``
order — and with it every tie, drop and table — is the reference's.  Two
levels of evidence:

* drawn interleavings of every engine entry point, from inside and outside
  callbacks, must log the same execution order, return values and clock on
  both engines (``post``/``post_at`` on the reference *are*
  ``schedule_after``/``schedule`` with the handle thrown away — the
  statement being tested);
* whole experiments run on either engine, both with the reference's
  two-event ``Link`` swapped in, must execute the identical
  ``event_hook`` stream and pickle the identical report, hooked and
  unhooked.  (The fused one-event ``Link`` orders exact ties differently
  by design; ``tests/net/test_link_oracle.py`` holds it to the two-event
  link on tie-free inputs.)
"""

from __future__ import annotations

import importlib.util
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.net.network
import repro.scenarios.runner
import repro.sim.engine
from repro.experiments.figures import run_figure
from repro.net.packet import restore_uid_counter, uid_counter_state
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.grid import grid_cell
from repro.sim.engine import Simulator


def _load_reference():
    # By path under a private name: tests/fluid and tests/audit have a
    # ``reference`` module too, and all three sit on sys.path at collection.
    spec = importlib.util.spec_from_file_location(
        "sim_reference", Path(__file__).with_name("reference.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


class ReferenceSimulator(reference.Simulator):
    """The old engine, given the new call shape and nothing else."""

    def post(self, delay, callback, args=(), name=None):
        self.schedule_after(delay, callback, *args, name=name)

    def post_at(self, time, callback, args=(), name=None):
        self.schedule(time, callback, *args, name=name)


# ----------------------------------------------------------------------
# (i) drawn interleavings of the engine's whole surface
# ----------------------------------------------------------------------
#: Offsets that collide: exact ties in the heap, and 0.0 for same-instant
#: chains through the ready lane.
_OFFSETS = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0])
_SCHEDULING = st.tuples(
    st.sampled_from(["schedule", "after", "post", "post", "post_at"]),
    _OFFSETS)
_ANYWHERE = st.one_of(
    _SCHEDULING,
    _SCHEDULING,
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.tuples(st.sampled_from(["peek", "pending", "stop"]), st.none()),
)
_OUTSIDE = st.one_of(
    _ANYWHERE,
    st.tuples(st.just("run_until"), _OFFSETS),
    st.tuples(st.just("run_max"), st.integers(0, 6)),
    st.tuples(st.just("run"), st.none()),
)


class _Script:
    """Apply drawn operations to one engine, logging all it shows."""

    def __init__(self, sim, inner, hooked):
        self.sim = sim
        sim.COMPACT_MIN_CANCELLED = 2  # compact often, over both shapes
        self.log = []
        self.handles = []
        self.labels = 0
        self._inner = iter(inner)
        if hooked:
            sim.event_hook = lambda event: self.log.append(
                ("event", event.time, event.seq, event.name, event.args))

    def fire(self, label):
        self.log.append(("fire", label, self.sim.now))
        for _ in range(2):  # each callback consumes the next two inner ops
            op = next(self._inner, None)
            if op is not None:
                self.apply(op)

    def apply(self, op):
        kind, arg = op
        sim, log = self.sim, self.log
        if kind in ("schedule", "after", "post", "post_at"):
            label, name = self.labels, f"e{self.labels}"
            self.labels += 1
            if kind == "schedule":
                self.handles.append(
                    sim.schedule(sim.now + arg, self.fire, label, name=name))
            elif kind == "after":
                self.handles.append(
                    sim.schedule_after(arg, self.fire, label, name=name))
            elif kind == "post":
                log.append(("post", sim.post(arg, self.fire, (label,), name)))
            else:
                log.append(("post_at", sim.post_at(sim.now + arg, self.fire,
                                                   (label,), name)))
        elif kind == "cancel":
            if self.handles:
                handle = self.handles[arg % len(self.handles)]
                handle.cancel()
                log.append(("cancel", handle.time, handle.seq))
        elif kind == "peek":
            log.append(("peek", sim.peek()))
        elif kind == "pending":
            log.append(("pending", sim.pending(), sim.queue_size()))
        elif kind == "stop":
            sim.stop()
        elif kind == "run_until":
            log.append(("ran", sim.run(until=sim.now + arg), sim.now))
        elif kind == "run_max":
            log.append(("ran", sim.run(max_events=arg), sim.now))
        else:
            log.append(("ran", sim.run(), sim.now))

    def play(self, outer):
        for op in outer:
            self.apply(op)
        sim = self.sim
        self.log.append(("drained", sim.run(), sim.now, sim.pending(),
                         sim.queue_size(), sim.peek(), sim.events_executed,
                         sim._seq, sim._cancelled))
        return self.log


#: A program written to reach what the property relies on drawing: posts and
#: handles tied in the heap, a same-instant chain of both through the ready
#: lane, a compaction while both containers hold both shapes, and a stop()
#: that parks both shapes back in the heap.
_PINNED_OUTER = [
    ("post", 0.5), ("schedule", 0.5), ("after", 0.5), ("post", 0.5),
    ("schedule", 1.0), ("schedule", 1.0), ("schedule", 1.0), ("post", 1.5),
    ("run", None), ("pending", None), ("peek", None), ("run_max", 1),
    ("run_until", 0.5),
]
_PINNED_INNER = [
    ("post", 0.0), ("after", 0.0), ("schedule", 0.0), ("cancel", 5),
    ("cancel", 2), ("cancel", 3), ("cancel", 4), ("stop", None),
]


@settings(max_examples=300, deadline=None)
@given(st.lists(_OUTSIDE, min_size=1, max_size=40),
       st.lists(_ANYWHERE, max_size=120), st.booleans())
@example(_PINNED_OUTER, _PINNED_INNER, False)
@example(_PINNED_OUTER, _PINNED_INNER, True)
def test_drawn_interleavings_execute_like_the_reference(outer, inner, hooked):
    new = _Script(Simulator(), inner, hooked).play(outer)
    old = _Script(ReferenceSimulator(), inner, hooked).play(outer)
    assert new == old


def test_the_pinned_program_reaches_what_it_was_written_for():
    sim = Simulator()
    script = _Script(sim, _PINNED_INNER, hooked=False)
    compacted = []
    compact = sim._compact

    def watched_compact():
        compacted.append((sorted(map(len, sim._queue)),
                          sorted(map(len, sim._ready))))
        compact()

    sim._compact = watched_compact
    for op in _PINNED_OUTER[:9]:  # ... up to the run() that gets stopped
        script.apply(op)
    assert compacted == [([3, 3, 3, 6], [3, 3, 6])]
    assert script.log[-1] == ("ran", 4, 0.5)
    assert sorted(map(len, sim._queue)) == [3, 6, 6] and not sim._ready
    # and the stand-in really is the old engine: it has one entry shape
    old = _Script(ReferenceSimulator(), [], hooked=False)
    old.apply(("post", 0.5))
    assert [len(entry) for entry in old.sim._queue] == [3]


# ----------------------------------------------------------------------
# (ii) whole experiments with the reference engine and link swapped in
# ----------------------------------------------------------------------
def _fig7_case3():
    result = run_figure("fig7", duration=2.0, warmup=1.0, seed=3,
                        cases=(3,))[3]
    return (result.rla, result.tcp, result.tiers, result.receivers,
            result.stats)


def _scenario(audited):
    return lambda: run_scenario(get_scenario(
        "tree-churn", duration=2.0, warmup=0.5, audited=audited))


def _codel_cell():
    row = run_scenario(grid_cell("codel", "trimodal", "wide", False,
                                 duration=2.5, warmup=0.5))
    assert row["sim_stats"]["evicted"] > 0  # dequeue-time drops are live
    return row


RUNS = {
    "fig7-case3": _fig7_case3,
    "tree-churn": _scenario(audited=False),
    "tree-churn-audited": _scenario(audited=True),
    "codel-trimodal": _codel_cell,
}


def _recording(base, stream):
    """``base`` whose every ``run`` chains a stream-recording event hook."""
    class Recording(base):
        def run(self, until=None, max_events=None):
            inner = self.event_hook

            def hook(event):
                stream.append((event.time, event.seq, event.name))
                if inner is not None:
                    inner(event)

            self.event_hook = hook
            try:
                return super().run(until, max_events)
            finally:
                self.event_hook = inner
    return Recording


def _observe(run, monkeypatch, simulator):
    # the tree runner imports Simulator from its module when it builds
    for module in (repro.sim.engine, repro.scenarios.runner):
        monkeypatch.setattr(module, "Simulator", simulator)
    monkeypatch.setattr(repro.net.network, "Link", reference.Link)
    restore_uid_counter(1)  # both sides see the same packet uids
    return pickle.dumps(run())


@pytest.fixture
def _uid_counter_put_back():
    before = uid_counter_state()
    yield
    restore_uid_counter(max(before, uid_counter_state()))


@pytest.mark.parametrize("name", RUNS)
def test_whole_run_is_event_for_event_the_reference(
        name, monkeypatch, _uid_counter_put_back):
    new_stream, old_stream = [], []
    with monkeypatch.context() as patch:
        old = _observe(RUNS[name], patch,
                       _recording(ReferenceSimulator, old_stream))
    with monkeypatch.context() as patch:
        new = _observe(RUNS[name], patch, _recording(Simulator, new_stream))
    plain = _observe(RUNS[name], monkeypatch, Simulator)  # nobody watching
    assert len(old_stream) > 20_000
    assert sum(name.endswith((".tx", ".rx"))
               for _, _, name in old_stream) > 0.8 * len(old_stream)
    assert new_stream == old_stream
    assert new == old
    assert plain == old
