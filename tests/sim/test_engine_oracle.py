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
from functools import partial
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
from repro.sim.process import Timer


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

    def rekey(self, event, delay):
        return False  # so every Timer restart cancels and reschedules


# ----------------------------------------------------------------------
# (i) drawn interleavings of the engine's whole surface
# ----------------------------------------------------------------------
#: Offsets that collide: exact ties in the heap, and 0.0 for same-instant
#: chains scheduled at ``now`` from inside callbacks.
_OFFSETS = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0])
_SCHEDULING = st.tuples(
    st.sampled_from(["schedule", "after", "post", "post", "post_at"]),
    _OFFSETS)
#: Three timers per script: (re)starts later, at the same instant or
#: earlier than the queued entry, and stops of re-keyed timers.
_TIMING = st.one_of(
    st.tuples(st.just("start"), st.tuples(st.integers(0, 2), _OFFSETS)),
    st.tuples(st.just("halt"), st.integers(0, 2)),
)
_ANYWHERE = st.one_of(
    _SCHEDULING,
    _SCHEDULING,
    _TIMING,
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
        self.timers = [Timer(sim, partial(self.fire, f"t{k}"), name=f"t{k}")
                       for k in range(3)]
        #: a timer restart re-keys on one engine and not on the other, so
        #: the physical queue sizes (and cancelled counts) agree only until
        #: the first timer op
        self.timed = False
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
        elif kind in ("start", "halt"):
            self.timed = True
            timer = self.timers[arg[0] if kind == "start" else arg]
            if kind == "start":
                timer.start(arg[1])
            else:
                timer.stop()
            log.append((kind, arg, timer.pending, timer.expiry))
        elif kind == "cancel":
            if self.handles:
                handle = self.handles[arg % len(self.handles)]
                handle.cancel()
                log.append(("cancel", handle.time, handle.seq))
        elif kind == "peek":
            log.append(("peek", sim.peek()))
        elif kind == "pending":
            log.append(("pending", sim.pending(),
                        None if self.timed else sim.queue_size()))
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
        ran = sim.run()  # a stop() from a callback can end it early
        physical = None if self.timed else (sim.queue_size(), sim._cancelled)
        self.log.append(("drained", ran, sim.now, sim.pending(), physical,
                         sim.peek(), sim.events_executed, sim._seq))
        return self.log


#: A program written to reach what the property relies on drawing: posts and
#: handles tied in the heap, a same-instant chain of both scheduled at
#: ``now`` from inside callbacks, a compaction while the heap holds both
#: shapes, and a stop() that leaves both shapes queued.
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


#: A timer program: a restart later than the queued entry, a run(until=...)
#: that stops between that entry's stale key and its true one, a restart
#: earlier than the entry (the fallback), one at the same instant, a stop
#: after a re-key, and (inner) a restart to ``now`` from inside a callback.
_TIMER_OUTER = [
    ("start", (0, 1.0)), ("start", (1, 0.5)), ("start", (2, 0.5)),
    ("run_until", 0.5),
    ("start", (0, 1.0)), ("pending", None), ("run_until", 0.5),
    ("peek", None), ("start", (0, 0.25)), ("start", (0, 0.25)),
    ("start", (1, 0.5)), ("start", (1, 0.5)), ("halt", 1), ("post", 0.25),
    ("run", None),
]
_TIMER_INNER = [("post", 0.0), ("start", (2, 0.0)), ("peek", None)]


@settings(max_examples=300, deadline=None)
@given(st.lists(_OUTSIDE, min_size=1, max_size=40),
       st.lists(_ANYWHERE, max_size=120), st.booleans())
@example(_PINNED_OUTER, _PINNED_INNER, False)
@example(_PINNED_OUTER, _PINNED_INNER, True)
@example(_TIMER_OUTER, _TIMER_INNER, False)
@example(_TIMER_OUTER, _TIMER_INNER, True)
@example([("schedule", 0.0)],  # re-keyed to now and later, then stop()
         [("schedule", 0.0), ("start", (0, 0.0)), ("start", (0, 0.25)),
          ("stop", None)], False)
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
        compacted.append(sorted(map(len, sim._queue)))
        compact()

    sim._compact = watched_compact
    for op in _PINNED_OUTER[:9]:  # ... up to the run() that gets stopped
        script.apply(op)
    assert compacted == [[3, 3, 3, 3, 3, 6, 6]]
    assert script.log[-1] == ("ran", 4, 0.5)
    assert sorted(map(len, sim._queue)) == [3, 6, 6]
    # and the stand-in really is the old engine: it has one entry shape
    old = _Script(ReferenceSimulator(), [], hooked=False)
    old.apply(("post", 0.5))
    assert [len(entry) for entry in old.sim._queue] == [3]


def test_the_timer_program_reaches_what_it_was_written_for():
    sim = Simulator()
    script = _Script(sim, _TIMER_INNER, hooked=False)
    for op in _TIMER_OUTER[:5]:  # ... up to the restart later
        script.apply(op)
    # t1's callback posted, then restarted t2 (due now) to now: t2 ran
    # after the post, re-keyed behind it
    fired = [entry[1] for entry in script.log if entry[0] == "fire"]
    assert fired == ["t1", 0, "t2"]  # 0: the post's label
    stale = [entry for entry in sim._queue
             if entry[2] is not None and entry[1] != entry[2].seq]
    assert [(entry[0], entry[2].time) for entry in stale] == [(1.0, 1.5)]
    for op in _TIMER_OUTER[5:7]:
        script.apply(op)
    assert script.log[-2:] == [("pending", 1, None), ("ran", 0, 1.0)]
    assert [entry[0] for entry in sim._queue] == [1.5]  # filed again
    for op in _TIMER_OUTER[7:9]:  # peek, then a restart before 1.5
        script.apply(op)
    assert sim.queue_size() == 2 and sim.pending() == 1
    rescheduled = script.timers[0]._event
    script.apply(_TIMER_OUTER[9])  # the same instant again: re-keyed
    assert script.timers[0]._event is rescheduled and sim.queue_size() == 2
    # and the stand-in keeps eager timers
    old = _Script(ReferenceSimulator(), [], hooked=False)
    old.apply(("start", (0, 1.0)))
    old.apply(("start", (0, 1.0)))
    assert old.sim.queue_size() == 2 and old.sim.pending() == 1


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
