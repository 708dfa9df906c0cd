"""RLA configuration validation."""

import pytest

from repro.errors import ConfigurationError
from repro.rla.config import RLAConfig


def test_defaults_follow_paper():
    config = RLAConfig().validate()
    assert config.eta == 20.0
    assert config.congestion_group_rtts == 2.0
    assert config.forced_cut_awnd_rtts == 2.0
    assert config.rexmit_thresh == 0
    assert config.rtt_scaled_pthresh is False


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta": float("nan")},
        {"eta": 0.5},
        {"eta": float("inf")},
        {"phase_jitter": float("nan")},
        {"phase_jitter": float("inf")},
        {"ack_jitter": float("nan")},
        {"ack_jitter": float("inf")},
        {"eta": float("-inf")},
        {"phase_jitter": -0.1},
        {"ack_jitter": -0.1},
    ],
)
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        RLAConfig(**kwargs).validate()


def test_validate_returns_self():
    config = RLAConfig()
    assert config.validate() is config
