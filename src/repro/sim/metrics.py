"""Lightweight metrics for simulation runs.

Counters, gauges and latency histograms, collected in a
:class:`MetricsRegistry` so a whole testbed can be summarised in one
call.  The histogram keeps raw samples (runs are modest in size), so
exact quantiles are available to the benchmark harness.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, List


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


class Histogram:
    """Exact-sample histogram for latency-style observations.

    Quantile queries share one sorted copy of the samples, invalidated
    on the next observation — ``summary()`` (four quantiles) and the
    exporter's repeated scrapes cost one sort, not one per query.

    Samples live in an ``array('d')``: the same IEEE doubles in the
    same order as a list of floats, at 8 bytes each instead of a
    pointer plus a float object — per-operation histograms are what
    makes a long run's memory grow with the operations it served.
    """

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples = array("d")
        self._sorted: "List[float] | None" = None

    @property
    def samples(self) -> "array[float]":
        return self._samples

    @samples.setter
    def samples(self, values: Iterable[float]) -> None:
        # Assigned wholesale by e.g. workload result merging.
        self._samples = array("d", values)
        self._sorted = None

    def observe(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    @property
    def stddev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(sum((s - mean) ** 2 for s in self.samples) / (n - 1))

    def _ordered(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def percentile(self, p: float) -> float:
        """Exact percentile via linear interpolation; ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self.samples:
            return 0.0
        ordered = self._ordered()
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.maximum,
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
