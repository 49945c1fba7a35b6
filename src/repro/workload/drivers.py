"""Workload drivers: closed-loop and open-loop clients.

A driver repeatedly issues operations against anything exposing the
suite/baseline interface (``read()`` and ``write(data)`` generator
methods), records per-operation latency, and counts *blocked*
operations — operations that exhausted their retries because a quorum
was unavailable.  Blocked-operation fractions are how the simulation
cross-checks the paper's analytic blocking probabilities.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from ..errors import ReproError
from ..sim.distributions import Distribution, as_distribution
from ..sim.rng import RandomStreams
from .mixes import READ, OperationMix, PayloadShape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator


def _stream_name(name: str, client_id: Optional[int]) -> str:
    """The rng stream a driver draws from.

    With a ``client_id``, the stream is a pure function of the run
    seed and the client id — never of the driver's display name or of
    how many other clients exist — so a multi-tenant population's
    per-client randomness is byte-reproducible and adding client N+1
    cannot perturb clients 0..N (common random numbers).  Without one,
    the legacy name-keyed stream is kept for single-driver callers.
    """
    if client_id is not None:
        return f"workload:client:{client_id}"
    return f"workload:{name}"


class LatencySamples:
    """Every latency one driver observed, for exact percentiles.

    Registry histograms keep bucket counts only; a workload's own
    read/write latencies keep each sample (8-byte doubles in an
    ``array('d')``) because gated bench rows read exact, interpolated
    percentiles from them.
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples = array("d")

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def percentile(self, p: float) -> float:
        """Exact percentile via linear interpolation; ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = (p / 100.0) * (len(ordered) - 1)
        low, high = math.floor(rank), math.ceil(rank)
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac


@dataclass
class WorkloadStats:
    """Aggregated outcome of one driver run."""

    operations: int = 0
    reads: int = 0
    writes: int = 0
    read_blocked: int = 0
    write_blocked: int = 0
    read_latency: LatencySamples = field(default_factory=LatencySamples)
    write_latency: LatencySamples = field(default_factory=LatencySamples)

    @property
    def blocked(self) -> int:
        return self.read_blocked + self.write_blocked

    @property
    def read_blocking_rate(self) -> float:
        attempts = self.reads + self.read_blocked
        return self.read_blocked / attempts if attempts else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "operations": float(self.operations),
            "reads": float(self.reads),
            "writes": float(self.writes),
            "read_blocked": float(self.read_blocked),
            "write_blocked": float(self.write_blocked),
            "read_latency_mean": self.read_latency.mean,
            "read_latency_p95": self.read_latency.percentile(95),
            "write_latency_mean": self.write_latency.mean,
            "write_latency_p95": self.write_latency.percentile(95),
        }


class ClosedLoopDriver:
    """One logical user: operation, think, operation, ...

    ``target`` is a suite or baseline client.  The driver is
    deterministic for a given streams seed and name.
    """

    def __init__(self, sim: "Simulator", target: Any,
                 mix: OperationMix,
                 payload: Optional[PayloadShape] = None,
                 think_time: "Distribution | float" = 0.0,
                 streams: Optional[RandomStreams] = None,
                 name: str = "driver",
                 client_id: Optional[int] = None) -> None:
        self.sim = sim
        self.target = target
        self.mix = mix
        self.payload = payload or PayloadShape()
        self.think_time = as_distribution(think_time)
        streams = streams or RandomStreams(seed=0)
        self._rng = streams.stream(_stream_name(name, client_id))
        self.name = name
        self.stats = WorkloadStats()

    def run(self, operations: int) -> Generator[Any, Any, WorkloadStats]:
        """Issue ``operations`` operations; returns the statistics."""
        for sequence in range(operations):
            yield from self._one_operation(sequence)
            think = self.think_time.sample(self._rng)
            if think > 0:
                yield self.sim.timeout(think)
        return self.stats

    def run_for(self, duration: float) -> Generator[Any, Any, WorkloadStats]:
        """Issue operations until ``duration`` of virtual time elapses."""
        deadline = self.sim.now + duration
        sequence = 0
        while self.sim.now < deadline:
            yield from self._one_operation(sequence)
            sequence += 1
            think = self.think_time.sample(self._rng)
            if think > 0:
                yield self.sim.timeout(think)
        return self.stats

    def _one_operation(self, sequence: int) -> Generator[Any, Any, None]:
        kind = self.mix.choose(self._rng)
        started = self.sim.now
        try:
            if kind == READ:
                yield from self.target.read()
                self.stats.reads += 1
                self.stats.read_latency.observe(self.sim.now - started)
            else:
                data = self.payload.build(self._rng, sequence)
                yield from self.target.write(data)
                self.stats.writes += 1
                self.stats.write_latency.observe(self.sim.now - started)
            self.stats.operations += 1
        except ReproError:
            if kind == READ:
                self.stats.read_blocked += 1
            else:
                self.stats.write_blocked += 1


class OpenLoopDriver:
    """Fire-and-measure arrivals at fixed or random intervals.

    Unlike the closed loop, a slow operation does not delay the next
    arrival — used by the blocking-probability experiments where each
    window must get exactly one trial regardless of how the previous
    trial fared.
    """

    def __init__(self, sim: "Simulator", target: Any, mix: OperationMix,
                 interarrival: "Distribution | float",
                 payload: Optional[PayloadShape] = None,
                 streams: Optional[RandomStreams] = None,
                 name: str = "open-driver",
                 client_id: Optional[int] = None) -> None:
        self.sim = sim
        self.target = target
        self.mix = mix
        self.interarrival = as_distribution(interarrival)
        self.payload = payload or PayloadShape()
        streams = streams or RandomStreams(seed=0)
        self._rng = streams.stream(_stream_name(name, client_id))
        self.name = name
        self.stats = WorkloadStats()
        self._outstanding: List[Any] = []

    def run(self, arrivals: int) -> Generator[Any, Any, WorkloadStats]:
        """Generate ``arrivals`` operations; wait for all to finish."""
        for sequence in range(arrivals):
            process = self.sim.spawn(self._one(sequence),
                                     name=f"{self.name}:{sequence}")
            self._outstanding.append(process)
            yield self.sim.timeout(self.interarrival.sample(self._rng))
        if self._outstanding:
            yield self.sim.all_of(self._outstanding)
        return self.stats

    def _one(self, sequence: int) -> Generator[Any, Any, None]:
        kind = self.mix.choose(self._rng)
        started = self.sim.now
        try:
            if kind == READ:
                yield from self.target.read()
                self.stats.reads += 1
                self.stats.read_latency.observe(self.sim.now - started)
            else:
                data = self.payload.build(self._rng, sequence)
                yield from self.target.write(data)
                self.stats.writes += 1
                self.stats.write_latency.observe(self.sim.now - started)
            self.stats.operations += 1
        except ReproError:
            if kind == READ:
                self.stats.read_blocked += 1
            else:
                self.stats.write_blocked += 1
