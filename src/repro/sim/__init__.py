"""Discrete-event simulation core (the NS2 stand-in).

Public surface:

* :class:`Simulator` — the event loop and clock.
* :class:`Event` — cancellable event handles.
* :class:`RngStreams` — named deterministic random streams.
* :class:`Timer`, :class:`PeriodicProcess` — timer utilities for agents.
"""

from .engine import Simulator
from .events import Event
from .process import PeriodicProcess, Timer
from .rng import RngStreams

__all__ = [
    "Simulator",
    "Event",
    "RngStreams",
    "Timer",
    "PeriodicProcess",
]
