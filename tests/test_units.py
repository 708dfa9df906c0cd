"""Unit-conversion helpers."""

import pytest

from repro.errors import ConfigurationError
from repro import units


def test_bits():
    assert units.bits(1) == 8
    assert units.bits(1000) == 8000


def test_pps_bps_roundtrip():
    bps = units.pps_to_bps(100)
    assert bps == 100 * 8000
    assert units.bps_to_pps(bps) == pytest.approx(100)


def test_pps_to_bps_custom_packet_size():
    assert units.pps_to_bps(10, packet_size=500) == 10 * 4000


def test_pps_to_bps_rejects_negative_rate():
    with pytest.raises(ConfigurationError):
        units.pps_to_bps(-1)


def test_mbps_kbps_ms():
    assert units.mbps(1) == 1e6
    assert units.kbps(64) == 64e3
    assert units.ms(5) == pytest.approx(0.005)


def test_transmission_time():
    # 1000 bytes at 1.6 Mbps (= 200 pkt/s) takes 5 ms.
    assert units.transmission_time(1000, units.pps_to_bps(200)) == pytest.approx(0.005)


def test_transmission_time_rejects_zero_bandwidth():
    with pytest.raises(ConfigurationError):
        units.transmission_time(1000, 0)


def test_default_constants():
    assert units.DEFAULT_PACKET_SIZE == 1000
    assert units.ACK_SIZE == 40
