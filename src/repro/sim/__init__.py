"""Discrete-event simulation substrate.

Provides the event engine, seeded RNG streams, FIFO service stations and the
network latency model that the CephFS metadata cluster simulation is built
on.
"""

from .engine import CancelledError, Completion, Process, SimEngine
from .network import Network
from .rng import RngStreams, ServiceTime
from .stations import FifoStation

__all__ = [
    "CancelledError",
    "Completion",
    "FifoStation",
    "Network",
    "Process",
    "RngStreams",
    "ServiceTime",
    "SimEngine",
]
