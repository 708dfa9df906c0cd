"""The experiment cases of §5 (figures 7-10).

Each case names the *most congested links* of the figure 6 tree.  The
paper sets "the corresponding link speeds ... so that the soft bottleneck
bandwidth share is min mu_i/(m_i+1) = 100 packets per second"; with one
background TCP connection per receiver, a congested link crossed by ``k``
TCP connections plus the multicast stream gets capacity
``(k + 1) * share``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..errors import TopologyError
from ..units import pps_to_bps
from .tree import TreeInfo, tree_link_names


@dataclass(frozen=True)
class TreeCase:
    """One column of the figure 7/9/10 tables."""

    name: str
    congested_links: Sequence[str]
    description: str
    #: which receiver population the case uses ("leaves" for figs 7-9,
    #: "leaves+level3" for figure 10)
    receivers: str = "leaves"

    def __post_init__(self) -> None:
        unknown = set(self.congested_links) - set(tree_link_names())
        if unknown:
            raise TopologyError(f"{self.name}: unknown links {sorted(unknown)}")


#: Figure 7/9 cases (27 leaf receivers, equal RTTs).
TREE_CASES: Dict[int, TreeCase] = {
    1: TreeCase("case1", ("L1",), "single shared bottleneck at the root link"),
    2: TreeCase("case2", tuple(f"L3{i}" for i in range(1, 10)),
                "nine level-3 bottlenecks (partially correlated losses)"),
    3: TreeCase("case3", tuple(f"L4{i}" for i in range(1, 28)),
                "27 leaf bottlenecks (independent losses)"),
    4: TreeCase("case4", tuple(f"L4{i}" for i in range(1, 6)),
                "five congested leaves, the rest uncongested"),
    5: TreeCase("case5", ("L21",),
                "one congested level-2 subtree (9 of 27 receivers)"),
}

#: Figure 10 cases (36 receivers: 27 leaves + G31..G39, unequal RTTs).
RTT_CASES: Dict[int, TreeCase] = {
    1: TreeCase("rtt-case1", tuple(f"L2{i}" for i in range(1, 4)),
                "all three level-2 links congested", receivers="leaves+level3"),
    2: TreeCase("rtt-case2", tuple(f"L3{i}" for i in range(1, 10)),
                "all nine level-3 links congested", receivers="leaves+level3"),
}


def lookup_case(registry: Dict[int, TreeCase], number: int) -> TreeCase:
    """``registry[number]``, or a :class:`TopologyError` naming the ids."""
    if number not in registry:
        raise TopologyError(
            f"unknown case {number}; expected one of {sorted(registry)}")
    return registry[number]


def case_receivers(case: TreeCase, info: TreeInfo) -> List[str]:
    """The receiver population the case runs with."""
    if case.receivers == "leaves":
        return list(info.leaves)
    if case.receivers == "leaves+level3":
        return list(info.leaves) + list(info.level3)
    raise TopologyError(f"unknown receiver population {case.receivers!r}")


def case_bandwidths(
    case: TreeCase, info: TreeInfo, share_pps: float = 100.0,
) -> Dict[str, float]:
    """Capacity (bits/s) of each congested link for a fair share of
    ``share_pps`` packets/second.

    A link crossed by ``k`` background TCP connections plus the single
    multicast stream gets ``(k + 1) * share_pps`` packets/second.  The
    background TCPs run from the sender to the *leaf* receivers only
    (figure 10's interior G3x receivers join the multicast group but get
    no TCP of their own — the paper's WTCP/BTCP rows there show leaf
    round-trip times).
    """
    if share_pps <= 0:
        raise TopologyError(f"share must be positive: {share_pps}")
    bandwidths: Dict[str, float] = {}
    for link in case.congested_links:
        crossing = len(info.leaves_below[link])
        bandwidths[link] = pps_to_bps((crossing + 1) * share_pps)
    return bandwidths


def congestion_tiers(
    case: TreeCase, info: TreeInfo, receivers: Sequence[str]
) -> Dict[str, List[str]]:
    """Split receivers into "more congested" / "less congested" groups.

    Receivers behind a congested link form the *more congested* group —
    the split figure 8 reports signal statistics over.
    """
    behind: set = set()
    for link in case.congested_links:
        behind.update(info.receivers_below(link, list(receivers)))
    more = [r for r in receivers if r in behind]
    less = [r for r in receivers if r not in behind]
    return {"more": more, "less": less}
