"""Snapshot mechanics: capture/restore exactness, file format, globals."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import (
    CheckpointError,
    FORMAT_VERSION,
    Snapshot,
    capture,
    dumps,
    load,
    restore,
    save,
)
from repro.net.packet import Packet, restore_uid_counter, uid_counter_state
from repro.sim.engine import Simulator


class BareWorld:
    """Minimal snapshot subject: a simulator plus a shared results list."""

    def __init__(self, seed: int = 1) -> None:
        self.sim = Simulator(seed=seed)
        self.log = []

    def emit(self, tag):
        self.log.append((self.sim.now, tag))


# ----------------------------------------------------------------------
# RNG stream round-trip
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    draws=st.lists(
        st.tuples(st.sampled_from(["tcp.a", "rla.b", "red.G1", "churn"]),
                  st.integers(min_value=1, max_value=20)),
        max_size=8,
    ),
)
def test_rng_streams_round_trip_exactly(seed, draws):
    """Every named stream's Mersenne state survives capture/restore, so
    the restored world's randomness future equals the original's."""
    world = BareWorld(seed=seed)
    for name, count in draws:
        stream = world.sim.rng.stream(name)
        for _ in range(count):
            stream.random()

    snapshot = capture(world)
    clone = restore(snapshot)
    assert clone.sim.rng.stream_states() == world.sim.rng.stream_states()
    for name, _ in draws:
        assert (clone.sim.rng.stream(name).random()
                == world.sim.rng.stream(name).random())


def test_reseed_diverges_and_is_deterministic():
    world = BareWorld(seed=7)
    world.sim.rng.stream("x").random()
    snapshot = capture(world)

    a1 = restore(snapshot)
    a2 = restore(snapshot)
    b = restore(snapshot)
    a1.sim.rng.reseed("branch.a")
    a2.sim.rng.reseed("branch.a")
    b.sim.rng.reseed("branch.b")
    draw = lambda world: world.sim.rng.stream("x").random()  # noqa: E731
    assert draw(a1) == draw(a2)
    assert draw(a1) != draw(b)
    assert draw(a1) != draw(restore(snapshot))


# ----------------------------------------------------------------------
# engine state round-trip
# ----------------------------------------------------------------------
def test_engine_event_order_and_accounting_round_trip():
    """Heap entries, sequence counters, cancellations, and the clock all
    restore exactly: the clone executes the identical remaining schedule."""
    world = BareWorld(seed=3)
    sim = world.sim
    for time, tag in [(1.0, "a"), (2.0, "b"), (2.0, "c"), (3.0, "d"),
                      (4.0, "e"), (4.0, "f"), (5.0, "g")]:
        event = sim.schedule(time, world.emit, tag)
        if tag in ("b", "e"):
            event.cancel()
    sim.run(until=2.5)
    assert [tag for _, tag in world.log] == ["a", "c"]

    snapshot = capture(world)
    clone = restore(snapshot)
    assert clone.sim.now == sim.now
    assert clone.sim.pending() == sim.pending()
    assert clone.sim.peek() == sim.peek()

    sim.run()
    clone.sim.run()
    assert clone.log == world.log
    assert [tag for _, tag in clone.log] == ["a", "c", "d", "f", "g"]
    assert clone.sim.events_executed == sim.events_executed


def test_same_timestamp_fifo_order_survives_restore():
    """Events scheduled at the running timestamp (the ready batch) keep
    their FIFO-after-heap order across a snapshot taken at that time."""
    world = BareWorld(seed=5)
    sim = world.sim

    def spawn():
        # schedules at the current timestamp -> ready batch, then the
        # engine flushes them back into the heap when run() returns.
        sim.schedule(sim.now, world.emit, "late1")
        sim.schedule(sim.now, world.emit, "late2")

    sim.schedule(2.0, spawn)
    sim.schedule(2.0, world.emit, "heap1")
    sim.run(until=2.0, max_events=1)  # execute spawn only

    snapshot = capture(world)
    clone = restore(snapshot)
    sim.run()
    clone.sim.run()
    assert [tag for _, tag in world.log] == ["heap1", "late1", "late2"]
    assert clone.log == world.log


def test_handle_free_entries_survive_restore_in_heap_and_ready_lane():
    """Posted (handle-free) entries pickle like handles do: tied with them
    in the heap, parked from the ready lane by a stop(), next to a
    cancelled handle — the clone runs the identical remaining schedule."""
    world = BareWorld(seed=5)
    sim = world.sim

    def spawn():
        sim.post(0.0, world.emit, ("ready-post",))
        sim.schedule(sim.now, world.emit, "ready-handle").cancel()
        sim.post(0.0, world.emit, ("ready-post2",), "named")
        sim.stop()  # the lane is flushed into the heap as run() returns

    sim.post(2.0, spawn)
    sim.schedule(2.0, world.emit, "heap-handle")
    sim.post(2.0, world.emit, ("heap-post",))
    sim.post(3.0, world.emit, ("later",))
    assert sim.run() == 1

    snapshot = capture(world)
    clone = restore(snapshot)
    assert sorted(map(len, clone.sim._queue)) == [3, 3, 6, 6, 6, 6]
    assert clone.sim.pending() == sim.pending() == 5
    assert clone.sim.peek() == sim.peek() == 2.0
    assert capture(clone).payload == snapshot.payload
    sim.run()
    clone.sim.run()
    assert [tag for _, tag in world.log] == [
        "heap-handle", "heap-post", "ready-post", "ready-post2", "later"]
    assert clone.log == world.log
    assert clone.sim.events_executed == sim.events_executed


def test_capture_inside_run_is_rejected():
    world = BareWorld()
    failures = []

    def try_capture():
        try:
            capture(world)
        except CheckpointError as exc:
            failures.append(str(exc))

    world.sim.schedule(1.0, try_capture)
    world.sim.run()
    assert failures and "running" in failures[0]


def test_capture_requires_a_simulator():
    with pytest.raises(CheckpointError, match="exposes no .sim"):
        capture(object())


def test_capture_rejects_unpicklable_world():
    world = BareWorld()
    world.poison = lambda: None
    with pytest.raises(CheckpointError, match="not picklable"):
        capture(world)


# ----------------------------------------------------------------------
# process-global packet uid counter
# ----------------------------------------------------------------------
def test_uid_counter_peek_does_not_consume():
    before = uid_counter_state()
    assert uid_counter_state() == before
    packet = Packet(kind="data", flow="f", src="A", dst="B", seq=0, size=1000)
    assert packet.uid == before
    assert uid_counter_state() == before + 1


def test_restore_resets_uid_counter():
    world = BareWorld()
    snapshot = capture(world)
    # simulate a fresh process: counter rewound below the captured value
    restore_uid_counter(1)
    restore(snapshot)
    assert uid_counter_state() == snapshot.uid_next


def test_restore_uid_counter_rejects_nonpositive():
    with pytest.raises(ValueError):
        restore_uid_counter(0)


def test_stale_uid_counter_collides_with_tracked_packet():
    """Why restore() rewinds the counter: in a fresh process the counter
    restarts at 1 and re-issues uids still held by pickled in-flight
    packets — the conservation auditor flags the collision."""
    from repro.audit import ConservationAuditor, FlightRecorder, InvariantMonitor
    from repro.audit.violation import InvariantViolation
    from repro.net.network import GatewayFactory, Network
    from repro.units import ms, pps_to_bps

    sim = Simulator(seed=1)
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("A", "B", pps_to_bps(200), ms(10))
    net.build_routes()
    monitor = InvariantMonitor(FlightRecorder())
    auditor = ConservationAuditor(sim, monitor=monitor,
                                  recorder=monitor.recorder)
    auditor.attach(net)
    try:
        tracked = Packet(kind="data", flow="f", src="A", dst="B",
                         seq=0, size=1000)
        restore_uid_counter(tracked.uid)  # the stale-counter scenario
        with pytest.raises(InvariantViolation, match="unique_uid"):
            Packet(kind="data", flow="f", src="A", dst="B", seq=1, size=1000)
    finally:
        restore_uid_counter(max(uid_counter_state(), tracked.uid + 1))
        auditor.detach()


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------
def test_save_load_round_trip(tmp_path):
    world = BareWorld(seed=11)
    world.sim.schedule(1.0, world.emit, "x")
    snapshot = capture(world, label="round-trip", resume="mod:finish")
    path = save(snapshot, tmp_path / "state.ckpt")
    loaded = load(path)
    assert loaded == snapshot
    assert loaded.label == "round-trip"
    assert loaded.resume == "mod:finish"
    assert loaded.sim_time == snapshot.sim_time
    # atomic write: no temp debris next to the file
    assert list(tmp_path.glob("*.tmp")) == []


def test_dumps_matches_file_bytes(tmp_path):
    snapshot = capture(BareWorld())
    path = save(snapshot, tmp_path / "state.ckpt")
    assert path.read_bytes() == dumps(snapshot)


def test_load_rejects_non_checkpoint_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(pickle.dumps({"magic": "something-else"}))
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        load(path)
    path.write_bytes(b"\x00garbage")
    with pytest.raises(CheckpointError, match="unreadable"):
        load(path)


def test_load_rejects_future_format_version(tmp_path):
    snapshot = capture(BareWorld())
    bumped = Snapshot(**{**snapshot.__dict__, "version": FORMAT_VERSION + 1})
    path = tmp_path / "future.ckpt"
    path.write_bytes(dumps(bumped))
    with pytest.raises(CheckpointError, match="format"):
        load(path)
    with pytest.raises(CheckpointError, match="format"):
        restore(bumped)


def _assert_format_refused(tmp_path, version):
    assert FORMAT_VERSION == 12
    snapshot = capture(BareWorld())
    old = Snapshot(**{**snapshot.__dict__, "version": version})
    path = save(old, tmp_path / f"v{version}.ckpt")
    for allow in (False, True):
        with pytest.raises(CheckpointError, match=(
                rf"has snapshot format v{version}; this build reads v12$")):
            load(path, allow_code_mismatch=allow)
    with pytest.raises(CheckpointError,
                       match=rf"^snapshot format v{version} not supported"):
        restore(old)


def test_load_rejects_v7_format_version(tmp_path):
    # v7 pickled two-event links (``_busy``, ``_transmission_done`` events):
    # refused with the one-line format message, never restored
    _assert_format_refused(tmp_path, 7)


def test_load_rejects_v8_format_version(tmp_path):
    # a v8 engine fires every heap entry at its own key, so a re-keyed
    # timer's entry, filed under an earlier key than its handle's, would
    # fire early there
    _assert_format_refused(tmp_path, 8)


def test_load_rejects_v9_format_version(tmp_path):
    # v9 engines pickle the same-instant ``_ready`` lane that v10 engines
    # no longer have: refused with the one-line format message
    _assert_format_refused(tmp_path, 9)


def test_load_rejects_v10_format_version(tmp_path):
    # a v10 ``TcpReceiver`` pickles a ``__dict__`` that the slotted v11
    # class has no room for: refused at load, not dead mid-restore
    _assert_format_refused(tmp_path, 10)


def test_load_rejects_v11_format_version(tmp_path):
    # a v11 ``Network`` pickles its default queue as a per-discipline
    # factory class that v12, with one ``GatewayFactory``, no longer has:
    # refused at load, not dead mid-restore
    _assert_format_refused(tmp_path, 11)


def _rewrite_header(path, **fields):
    """The file at ``path`` with header fields replaced, payload untouched."""
    data = path.read_bytes()
    header = pickle.loads(data)
    header_len = len(pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL))
    assert data[:header_len] == pickle.dumps(
        header, protocol=pickle.HIGHEST_PROTOCOL)
    path.write_bytes(pickle.dumps({**header, **fields},
                                  protocol=pickle.HIGHEST_PROTOCOL)
                     + data[header_len:])


def test_load_refuses_a_flipped_uid_next_digit(tmp_path):
    """Until v9 the digest covered the payload only: this file restored a
    world whose packet-uid counter was off by a digit."""
    world = BareWorld()
    world.sim.schedule(1.0, world.emit, "x")
    path = save(capture(world, label="uid", resume="mod:finish"),
                tmp_path / "state.ckpt")
    uid_next = load(path).uid_next
    digits = str(uid_next)
    flipped = int(digits[:-1] + str((int(digits[-1]) + 1) % 10))
    _rewrite_header(path, uid_next=flipped)
    with pytest.raises(CheckpointError) as caught:
        load(path)
    message = str(caught.value)
    assert "truncated or corrupt" in message and "\n" not in message


@pytest.mark.parametrize("field, value", [
    ("code", "0" * 16), ("label", "other"), ("resume", "mod:other"),
    ("sim_time", 2.0),
])
def test_digest_covers_every_header_field_a_restore_acts_on(
        tmp_path, field, value):
    path = save(capture(BareWorld(), label="x", resume="mod:finish"),
                tmp_path / "state.ckpt")
    _rewrite_header(path, **{field: value})
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        load(path, allow_code_mismatch=True)


def test_every_header_bit_flip_is_refused_or_harmless(tmp_path, capfd):
    """A flip that turns a ``MEMOIZE`` opcode (0x94) into ``BYTEARRAY8``
    (0x96) made CPython print its own ``SystemError: deallocated
    bytearray object has exported buffers`` line ahead of the error.
    A flip may only be refused, silently, or change nothing (the
    protocol byte, the frame length)."""
    world = BareWorld()
    world.sim.schedule(1.0, world.emit, "x")
    snapshot = capture(world, label="flip", resume="mod:finish")
    data = dumps(snapshot)
    path = tmp_path / "flipped.ckpt"
    header_bits = 8 * (len(data) - len(snapshot.payload))
    refused = 0
    for bit in range(header_bits):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(flipped)
        try:
            loaded = load(path)
        except CheckpointError:
            refused += 1
        else:
            assert loaded == snapshot, bit
        assert capfd.readouterr().err == "", bit
    assert refused >= header_bits - 8


def test_load_rejects_code_mismatch(tmp_path):
    snapshot = capture(BareWorld())
    stale = Snapshot(**{**snapshot.__dict__, "code": "0" * 16})
    path = save(stale, tmp_path / "stale.ckpt")
    with pytest.raises(CheckpointError, match="different simulator code"):
        load(path)
    assert load(path, allow_code_mismatch=True).payload == snapshot.payload
