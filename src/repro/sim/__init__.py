"""Discrete-event simulation kernel used by every substrate."""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import FairResource, Resource, Store

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "Resource",
    "FairResource",
    "Store",
]
