"""Order statistics for latency samples."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence.

    The smallest sample with at least ``p`` percent of the samples at or
    below it, so "p99 of n samples leaves ``n - ceil(0.99 n)`` beyond
    it" is exact and a glossary can state the count.
    """
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    # The epsilon keeps 99.9% of 1000 at rank 999 despite float rounding.
    rank = math.ceil(p * len(ordered) / 100.0 - 1e-9)
    return ordered[max(rank, 1) - 1]
