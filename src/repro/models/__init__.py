"""Analytical models from §4 of the paper (DESIGN.md S11-S12).

The essential-fairness judge is re-exported here because every backend's
report uses it; the closed forms live in :mod:`.tcp_formula` and
:mod:`.rla_drift`, the two-session particle model in :mod:`.particle`.
"""

from .fairness import (
    DROPTAIL,
    RED,
    FairnessVerdict,
    check_essential_fairness,
    essential_fairness_bounds,
    is_absolutely_fair,
    jain_index,
    jain_index_weighted,
    rtt_ratio_bounds,
    soft_bottleneck,
    soft_bottleneck_share,
    window_ratio_bounds,
)

__all__ = [
    "DROPTAIL",
    "RED",
    "FairnessVerdict",
    "check_essential_fairness",
    "essential_fairness_bounds",
    "is_absolutely_fair",
    "jain_index",
    "jain_index_weighted",
    "rtt_ratio_bounds",
    "soft_bottleneck",
    "soft_bottleneck_share",
    "window_ratio_bounds",
]
