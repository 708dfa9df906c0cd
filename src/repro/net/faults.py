"""Failure injection for robustness testing.

:class:`RandomDropQueue` wraps any gateway discipline with a Bernoulli
loss channel: each arrival is dropped with probability ``drop_prob``
*before* the underlying discipline sees it, modelling random corruption /
wireless loss independent of congestion.  The paper's algorithms must
stay live under such loss (TCP via retransmission, the RLA via its
repair machinery) — the failure-injection tests drive exactly that.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..errors import ConfigurationError
from .packet import Packet
from .queue import DequeueHook, DropHook, EnqueueHook, Gateway


class RandomDropQueue(Gateway):
    """A gateway that loses each arriving packet with fixed probability."""

    discipline = "randomdrop"

    def __init__(
        self,
        inner: Gateway,
        drop_prob: float,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= drop_prob < 1.0:
            raise ConfigurationError(f"drop_prob out of [0,1): {drop_prob}")
        if rng is None:
            # A silent random.Random(0) default would bypass the simulator's
            # seeded streams — the exact pattern REDQueue rejects: every
            # directly constructed fault queue would share one drop sequence
            # and same-seed replay would diverge across runs.
            raise ConfigurationError(
                "RandomDropQueue requires an injected rng; use "
                "sim.rng.stream('drop.<name>') or net.random_drop_factory(...)"
            )
        super().__init__(inner.capacity)
        self.inner = inner
        self.drop_prob = drop_prob
        self.rng = rng
        self.random_drops = 0

    # Delegate storage to the inner gateway; this class only adds the coin.
    def enqueue(self, now: float, packet: Packet) -> bool:
        if self.rng.random() < self.drop_prob:
            self.random_drops += 1
            # Fire the wrapper's own hook list directly: `dropped` is a
            # derived property (random_drops + inner.dropped), so the
            # counter bump inside _notify_drop must not run.
            hooks = self._drop_hooks
            if hooks:
                for hook in hooks:
                    hook(now, packet, "random")
            return False
        accepted = self.inner.enqueue(now, packet)
        if accepted:
            self.enqueued += 1
        # Inner rejections are NOT re-reported here: the inner discipline
        # already notified its drop hooks with the true cause ("early",
        # "forced", "overflow") and bumped inner.dropped.  Re-notifying as
        # "overflow" masked RED's causes and double-counted every loss.
        return accepted

    def dequeue(self, now: float) -> Optional[Packet]:
        packet = self.inner.dequeue(now)
        if packet is not None:
            self.dequeued += 1
        return packet

    # Storage lives in the inner gateway, so observers of arrivals and
    # removals must be registered where `_accept`/`dequeue` actually run.
    # Drop hooks register in BOTH places: the inner discipline reports its
    # own losses with their true causes, the wrapper adds only the
    # Bernoulli "random" coin losses the inner queue never sees.
    def on_enqueue(self, hook: EnqueueHook) -> None:
        self.inner.on_enqueue(hook)

    def on_dequeue(self, hook: DequeueHook) -> None:
        self.inner.on_dequeue(hook)

    def on_drop(self, hook: DropHook) -> None:
        self.inner.on_drop(hook)
        self._drop_hooks.append(hook)

    def contents(self) -> Tuple[Packet, ...]:
        return self.inner.contents()

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def depth(self) -> int:
        """Current inner queue length in packets."""
        return self.inner.depth

    @property
    def dropped(self) -> int:
        """Total losses: the wrapper's coin plus the inner discipline's."""
        return self.random_drops + self.inner.dropped

    @dropped.setter
    def dropped(self, value: int) -> None:
        # Assigned by Gateway.__init__ before `inner` exists.  The composite
        # is derived (random_drops + inner.dropped), so the base-class zero
        # is simply discarded; later assignment would corrupt the split.
        if "inner" in self.__dict__:
            raise AttributeError(
                "RandomDropQueue.dropped is derived; set random_drops or "
                "inner.dropped instead"
            )

    @property
    def bytes_queued(self) -> int:
        """Bytes held in the inner queue (storage lives inside)."""
        return self.inner.bytes_queued

    @bytes_queued.setter
    def bytes_queued(self, value: int) -> None:
        # Assigned by Gateway.__init__ before `inner` exists; the inner
        # gateway tracks the real value, so the base-class zero is discarded.
        if "inner" in self.__dict__:
            self.inner.bytes_queued = value

    @property
    def evicted(self) -> int:
        """Dequeue-time evictions by the inner discipline (e.g. CoDel)."""
        return self.inner.evicted

    @evicted.setter
    def evicted(self, value: int) -> None:
        # Same pre-`inner` guard as peak_depth/bytes_queued.
        if "inner" in self.__dict__:
            self.inner.evicted = value

    @property
    def peak_depth(self) -> int:
        """Largest inner queue depth reached (storage lives inside)."""
        return self.inner.peak_depth

    @peak_depth.setter
    def peak_depth(self, value: int) -> None:
        # Assigned by Gateway.__init__ before `inner` exists; the inner
        # gateway initializes its own counter, so the base-class zero is
        # simply discarded.
        if "inner" in self.__dict__:
            self.inner.peak_depth = value

    @property
    def mean_pkt_time(self) -> float:  # noqa: D401 - property pair
        """Mean packet service time, proxied to the inner discipline."""
        return self.inner.mean_pkt_time

    @mean_pkt_time.setter
    def mean_pkt_time(self, value: float) -> None:
        # Assigned by Gateway.__init__ before `inner` exists; the base-class
        # 0.0 is discarded, as for the sibling setters.
        if "inner" in self.__dict__:
            self.inner.mean_pkt_time = value


class RandomDropFactory:
    """Picklable factory wrapping an inner queue factory with loss.

    Each produced queue draws from its own ``drop.<link-name>`` stream of
    the simulator's seeded RNG registry, so fault injection is part of the
    same-seed replay contract like every other source of randomness.
    """

    def __init__(self, inner_factory, drop_prob: float, sim) -> None:
        if sim is None:
            raise ConfigurationError(
                "random_drop_factory requires the simulator: per-queue drop "
                "rngs must come from its seeded stream registry"
            )
        self.inner_factory = inner_factory
        self.drop_prob = drop_prob
        self.sim = sim

    def __call__(self, name: str) -> RandomDropQueue:
        rng = self.sim.rng.stream(f"drop.{name}")
        return RandomDropQueue(self.inner_factory(name), self.drop_prob, rng=rng)


def random_drop_factory(inner_factory, drop_prob: float, sim=None):
    """Wrap a queue factory with a Bernoulli loss channel.

    ``sim`` is required: it supplies the per-queue seeded RNG streams that
    keep fault injection deterministic across same-seed runs.
    """
    return RandomDropFactory(inner_factory, drop_prob, sim)
