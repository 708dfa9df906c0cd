"""The Random Listening Algorithm — the paper's contribution (DESIGN.md S7-S8)."""

from .config import RLAConfig
from .congestion import TroubleTracker
from .policy import LaggardDropPolicy
from .receiver import RLAReceiver
from .reference import NaiveRLASender
from .sender import RLASender
from .session import RLASession
from .state import ReceiverState

__all__ = [
    "LaggardDropPolicy",
    "NaiveRLASender",
    "RLAConfig",
    "RLAReceiver",
    "RLASender",
    "RLASession",
    "ReceiverState",
    "TroubleTracker",
]
