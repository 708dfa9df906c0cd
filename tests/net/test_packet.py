"""Packet objects and addressing helpers."""

from repro.net.addressing import flow_id, group_address, is_multicast
from repro.net.packet import ACK, DATA, Packet


def test_uids_are_unique():
    a = Packet(DATA, "f", "A", "B", 0, 1000)
    b = Packet(DATA, "f", "A", "B", 0, 1000)
    assert a.uid != b.uid


def test_copy_preserves_fields_but_not_uid():
    original = Packet(DATA, "f", "A", "group:g", 7, 1000,
                      sent_time=1.5, is_retransmit=True)
    original.hops = 3
    clone = original.copy()
    assert clone.uid != original.uid
    assert clone.seq == 7
    assert clone.dst == "group:g"
    assert clone.sent_time == 1.5
    assert clone.is_retransmit
    assert clone.hops == 3


def test_ack_fields():
    ack = Packet(ACK, "f", "B", "A", 7, 40, ack=8, sack=((10, 12),),
                 receiver="B", echo_ts=2.0)
    assert ack.ack == 8
    assert ack.sack == ((10, 12),)
    assert ack.receiver == "B"
    assert "ack=8" in repr(ack)


def test_group_address_idempotent():
    assert group_address("rla-0") == "group:rla-0"
    assert group_address("group:rla-0") == "group:rla-0"


def test_is_multicast():
    assert is_multicast("group:x")
    assert not is_multicast("R1")


def test_flow_id():
    assert flow_id("tcp", 3) == "tcp-3"
    assert flow_id("rla", "a.b") == "rla-a.b"


def test_uid_counter_peek_and_restore_warn_nothing():
    """Every checkpoint.capture peeks at the uid counter; the old peek used
    itertools.count's pickle support (DeprecationWarning on 3.12+, gone in
    3.14).  Fresh interpreter, warnings as errors."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from repro.net.packet import (DATA, Packet, restore_uid_counter,\n"
        "                              uid_counter_state)\n"
        "first = Packet(DATA, 'f', 'A', 'B', 0, 1000).uid\n"
        "assert uid_counter_state() == first + 1 == uid_counter_state()\n"
        "assert Packet(DATA, 'f', 'A', 'B', 1, 1000).uid == first + 1\n"
        "restore_uid_counter(500)\n"
        "assert uid_counter_state() == 500\n"
        "assert Packet(DATA, 'f', 'A', 'B', 2, 1000).copy().uid == 501\n"
        "assert uid_counter_state() == 502\n"
        "print('ok')\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
