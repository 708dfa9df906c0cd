"""Receiver churn: join/leave schedules driving mid-session membership.

A churn schedule is generated **up front**, deterministically, from the
``scenario.churn`` RNG stream: Poisson join arrivals, exponential or
heavy-tailed (Pareto) holding times, and a ``min_members`` floor that is
enforced at generation time by delaying leaves — the RLA sender refuses
to drop its last receiver, and a schedule that never tries keeps the run
reproducible instead of depending on runtime error handling.

The :class:`ChurnDriver` then replays the schedule against a live
:class:`~repro.rla.session.RLASession`, exercising the
``add_member``/``remove_member`` tree-maintenance path.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigurationError
from .traffic import pareto_draw

#: Name of the RNG stream churn schedules draw from.
CHURN_STREAM = "scenario.churn"

JOIN = "join"
LEAVE = "leave"


@dataclass(frozen=True)
class ChurnSpec:
    """Declarative join/leave process for one scenario.

    ``initial_members`` receivers are present from t=0; further hosts
    join as a Poisson process at ``arrival_rate_per_s`` and hold their
    membership for ``mean_hold_s`` on average (``hold_dist`` picks
    exponential or Pareto tails).  Membership never drops below
    ``min_members``.
    """

    arrival_rate_per_s: float = 0.5
    mean_hold_s: float = 10.0
    hold_dist: str = "exp"  # "exp" | "pareto"
    initial_members: int = 2
    min_members: int = 1

    #: Tail index of the Pareto holding times (a class attribute, not a
    #: field).
    pareto_alpha = 1.5

    def validate(self) -> "ChurnSpec":
        """Check parameter sanity; returns self for chaining."""
        if self.arrival_rate_per_s < 0:
            raise ConfigurationError(
                f"negative arrival rate: {self.arrival_rate_per_s}"
            )
        if self.mean_hold_s <= 0:
            raise ConfigurationError(f"non-positive hold time: {self.mean_hold_s}")
        if self.hold_dist not in ("exp", "pareto"):
            raise ConfigurationError(f"unknown hold_dist {self.hold_dist!r}")
        if self.initial_members < 1:
            raise ConfigurationError(
                f"need at least one initial member: {self.initial_members}"
            )
        if not (1 <= self.min_members <= self.initial_members):
            raise ConfigurationError(
                "need 1 <= min_members <= initial_members: "
                f"{self.min_members} vs {self.initial_members}"
            )
        return self


#: One schedule entry: (time, "join" | "leave", host).
ChurnEvent = Tuple[float, str, str]


def _hold(spec: ChurnSpec, rng: random.Random) -> float:
    if spec.hold_dist == "pareto":
        return pareto_draw(rng, spec.mean_hold_s, spec.pareto_alpha)
    return rng.expovariate(1.0 / spec.mean_hold_s)


def churn_schedule(
    spec: ChurnSpec, hosts: List[str], duration: float, rng: random.Random
) -> Tuple[List[str], List[ChurnEvent]]:
    """Generate ``(initial_members, events)`` for one scenario run.

    The event list is time-sorted and respects the invariants the live
    session needs: a host joins only while absent, leaves only while
    present, and the member count never goes below ``spec.min_members``
    (a leave that would violate the floor is pushed back behind the next
    join).  Hosts are drawn from ``hosts`` without replacement while any
    are free; with all hosts subscribed, further arrivals are dropped.
    """
    spec.validate()
    if len(hosts) < spec.initial_members:
        raise ConfigurationError(
            f"churn needs {spec.initial_members} initial members, "
            f"topology only offers {len(hosts)} hosts"
        )

    free = list(hosts)
    initial: List[str] = []
    for _ in range(spec.initial_members):
        initial.append(free.pop(rng.randrange(len(free))))

    # pending leave times, smallest first; entries carry (time, seq, host)
    # with a tie-breaking sequence number so ordering never compares hosts
    leaves: List[Tuple[float, int, str]] = []
    seq = 0
    for member in initial:
        heapq.heappush(leaves, (_hold(spec, rng), seq, member))
        seq += 1

    joins: List[Tuple[float, str]] = []
    if spec.arrival_rate_per_s > 0:
        t = rng.expovariate(spec.arrival_rate_per_s)
        while t < duration:
            joins.append((t, ""))  # host resolved during the replay below
            t += rng.expovariate(spec.arrival_rate_per_s)

    events: List[ChurnEvent] = []
    members = set(initial)
    join_index = 0
    while True:
        next_join = joins[join_index][0] if join_index < len(joins) else None
        next_leave = leaves[0][0] if leaves else None
        if next_join is None and next_leave is None:
            break
        take_join = next_leave is None or (
            next_join is not None and next_join <= next_leave
        )
        if take_join:
            t = next_join
            join_index += 1
            if t >= duration or not free:
                continue
            host = free.pop(rng.randrange(len(free)))
            members.add(host)
            events.append((t, JOIN, host))
            heapq.heappush(leaves, (t + _hold(spec, rng), seq, host))
            seq += 1
        else:
            t, _, host = heapq.heappop(leaves)
            if t >= duration:
                break  # every remaining leave is later still
            if len(members) <= spec.min_members:
                if join_index < len(joins) and free:
                    # floor reached: postpone this leave until just after
                    # the next join restores headroom
                    heapq.heappush(
                        leaves, (max(t, joins[join_index][0]) + 1e-9, seq, host)
                    )
                    seq += 1
                # no joins left: the member stays for the rest of the run
                continue
            members.discard(host)
            free.append(host)
            events.append((t, LEAVE, host))

    return initial, events


class ChurnDriver:
    """Replays a churn schedule against a live RLA session."""

    def __init__(self, sim, session, events: List[ChurnEvent]) -> None:
        self.sim = sim
        self.session = session
        self.events = list(events)
        self.applied: List[ChurnEvent] = []

    def start(self) -> None:
        """Schedule every churn event on the simulator."""
        for when, kind, host in self.events:
            self.sim.schedule(when, self._apply, kind, host, name=f"churn.{kind}")

    def _apply(self, kind: str, host: str) -> None:
        if kind == JOIN:
            self.session.add_member(host)
        else:
            self.session.remove_member(host)
        self.applied.append((self.sim.now, kind, host))
