"""Lightweight metrics for simulation runs.

Counters, gauges and latency histograms, collected in a
:class:`MetricsRegistry` so a whole testbed can be summarised in one
call.  A histogram keeps bucket counts over one fixed ladder, not its
samples, so a long-lived daemon's registry stays the same size however
many operations it serves.  Exact percentiles are the workload
drivers' business (:mod:`repro.workload.drivers`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can move both ways, with its running maximum.

    ``maximum`` tracks observed values only — it starts ``None`` and
    the first ``set()`` wins, so a gauge that only ever holds negative
    values reports that negative maximum rather than a phantom 0.0.
    """

    __slots__ = ("name", "value", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.maximum: "float | None" = None

    def set(self, value: float) -> None:
        self.value = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


#: Histogram bucket upper bounds, in milliseconds (or small counts, such
#: as quorum sizes); ``+Inf`` is implicit.  A live handler takes tens
#: of microseconds and a live quorum wait under a millisecond, while sim
#: waits run to seconds, so the ladder spans 0.01 ms to 5 s.
BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
           1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
           1000.0, 2500.0, 5000.0)


class Histogram:
    """Fixed-bucket histogram for latency-style observations.

    ``counts[i]`` is the number of observations ``<= BUCKETS[i]`` and
    above the bound before it (Prometheus ``le`` semantics); the last
    slot counts everything past the ladder.  State is constant in the
    number of observations, and the same rule answers quantiles for
    one registry and for a fleet whose buckets were summed.
    """

    __slots__ = ("name", "counts", "count", "sum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts = [0] * (len(BUCKETS) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(BUCKETS, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The smallest bucket bound covering ``q`` of the observations.

        An upper bound — never understating — and ``inf`` when the
        quantile lies past the last bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        running = 0
        for bound, count in zip(BUCKETS, self.counts):
            running += count
            if running >= target:
                return bound
        return math.inf

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3f})"


class MetricsRegistry:
    """Namespace of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        """Read a gauge without creating it (for signal consumers that
        poll many label combinations which may never exist)."""
        gauge = self._gauges.get(name)
        return gauge.value if gauge is not None else default

    def counter_value(self, name: str, default: int = 0) -> int:
        """Read a counter without creating it."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else default

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> Dict[str, Dict[str, float]]:
        return {name: h.summary() for name, h in sorted(self._histograms.items())}

    def snapshot(self) -> Dict[str, object]:
        """Everything, as plain data — handy for printing bench rows."""
        return {
            "counters": self.counters(),
            "gauges": {n: {"value": g.value, "max": g.maximum}
                       for n, g in sorted(self._gauges.items())},
            "histograms": self.histograms(),
        }
