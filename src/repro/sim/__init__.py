"""Deterministic discrete-event simulation kernel.

This package is the substrate that stands in for the paper's physical
testbed (Altos on an experimental Ethernet): virtual time, generator
processes, a datagram network with latency/loss/partitions, host
crash/restart, seeded random streams, and metrics.
"""

from .distributions import (Constant, Distribution, Exponential, Lognormal,
                            Uniform, as_distribution)
from .events import AllOf, Event, Timeout
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .network import Host, Network, SharedMedium
from .process import Process
from .queues import Resource
from .rng import RandomStreams
from .simulator import Simulator

__all__ = [
    "AllOf", "Constant", "Counter", "Distribution", "Event",
    "Exponential", "Gauge", "Histogram", "Host",
    "Lognormal", "MetricsRegistry", "Network",
    "Process", "RandomStreams", "Resource",
    "SharedMedium",
    "Simulator", "Timeout", "Uniform", "as_distribution",
]
