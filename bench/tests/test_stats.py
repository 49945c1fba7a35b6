import random

import pytest

from bench.stats import percentile


def reference_percentile(values, p):
    """Smallest sample with at least p% of the samples at or below it."""
    for candidate in sorted(values):
        if sum(1 for v in values if v <= candidate) * 100.0 >= p * len(values) - 1e-7:
            return candidate
    raise AssertionError("unreachable")


def test_percentile_matches_sorted_reference():
    rng = random.Random(7)
    for size in (1, 2, 3, 10, 99, 100, 101, 1000):
        values = [rng.random() for _ in range(size)]
        ordered = sorted(values)
        for p in (1, 25, 50, 90, 95, 99, 99.9, 100):
            assert percentile(ordered, p) == reference_percentile(values, p)


def test_percentile_leaves_the_stated_count_beyond():
    ordered = list(range(1, 1001))
    assert percentile(ordered, 99) == 990       # ten samples beyond p99
    assert percentile(ordered, 50) == 500


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
