"""RNG streams, distributions, metrics."""

import math
import tracemalloc

import pytest

from repro.sim import (Constant, Exponential, Histogram, Lognormal,
                       MetricsRegistry, RandomStreams, Uniform,
                       as_distribution)
from repro.sim.metrics import BUCKETS
from repro.workload.drivers import LatencySamples


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(seed=1)
        assert streams.stream("x") is streams.stream("x")

    def test_streams_reproducible_across_factories(self):
        a = RandomStreams(seed=9).stream("net")
        b = RandomStreams(seed=9).stream("net")
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_different_names_independent(self):
        streams = RandomStreams(seed=9)
        a = streams.stream("one")
        b = streams.stream("two")
        assert [a.random() for _ in range(5)] != \
            [b.random() for _ in range(5)]

    def test_new_stream_does_not_disturb_existing(self):
        streams = RandomStreams(seed=3)
        a = streams.stream("a")
        first = a.random()
        streams2 = RandomStreams(seed=3)
        a2 = streams2.stream("a")
        streams2.stream("b").random()  # extra stream created and used
        assert a2.random() == first

    def test_fork_independent(self):
        root = RandomStreams(seed=4)
        fork = root.fork("child")
        assert root.stream("x").random() != fork.stream("x").random()


class TestDistributions:
    def test_constant(self):
        dist = Constant(5.0)
        assert dist.mean == 5.0
        assert dist.sample(RandomStreams(0).stream("r")) == 5.0

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            Constant(-1.0)

    def test_uniform_bounds_and_mean(self):
        dist = Uniform(2.0, 4.0)
        rng = RandomStreams(0).stream("u")
        samples = [dist.sample(rng) for _ in range(500)]
        assert all(2.0 <= s <= 4.0 for s in samples)
        assert dist.mean == 3.0
        assert abs(sum(samples) / len(samples) - 3.0) < 0.2

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            Uniform(5.0, 1.0)

    def test_exponential_mean(self):
        dist = Exponential(10.0)
        rng = RandomStreams(0).stream("e")
        samples = [dist.sample(rng) for _ in range(4000)]
        assert abs(sum(samples) / len(samples) - 10.0) < 1.0

    def test_lognormal_mean(self):
        dist = Lognormal(mean=20.0, sigma=0.5)
        rng = RandomStreams(0).stream("l")
        samples = [dist.sample(rng) for _ in range(4000)]
        assert abs(sum(samples) / len(samples) - 20.0) < 2.0

    def test_as_distribution_coerces_numbers(self):
        dist = as_distribution(3)
        assert isinstance(dist, Constant)
        assert dist.mean == 3.0

    def test_as_distribution_passthrough(self):
        dist = Exponential(1.0)
        assert as_distribution(dist) is dist

    def test_as_distribution_rejects_junk(self):
        with pytest.raises(TypeError):
            as_distribution("fast")


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        counter.increment()
        counter.increment(4)
        assert registry.counter("ops").value == 5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_gauge_tracks_maximum(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3.0)
        gauge.set(1.0)
        gauge.add(0.5)
        assert gauge.value == 1.5
        assert gauge.maximum == 3.0

    def test_gauge_maximum_of_negative_values(self):
        # Regression: a gauge that only ever holds negative values must
        # report the largest *observed* value, not a phantom 0.0 from
        # initialisation.
        gauge = MetricsRegistry().gauge("drift")
        assert gauge.maximum is None  # unset until the first set()
        gauge.set(-5.0)
        assert gauge.maximum == -5.0
        gauge.set(-2.0)
        assert gauge.maximum == -2.0
        gauge.set(-9.0)
        assert gauge.maximum == -2.0

    def test_histogram_statistics(self):
        histogram = LatencySamples()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.mean == 2.5
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 4.0

    def test_histogram_percentile_interpolates(self):
        histogram = LatencySamples()
        histogram.observe(0.0)
        histogram.observe(10.0)
        assert histogram.percentile(50) == 5.0

    def test_histogram_empty_safe(self):
        histogram = LatencySamples()
        assert histogram.mean == 0.0
        assert histogram.percentile(99) == 0.0
        bucketed = Histogram("lat")
        assert bucketed.mean == 0.0
        assert bucketed.quantile(0.99) == 0.0

    def test_histogram_invalid_percentile(self):
        with pytest.raises(ValueError):
            LatencySamples().percentile(150)
        LatencySamples().observe(1.0)

    def test_bucketed_histogram_counts_a_bound_in_its_bucket(self):
        histogram = Histogram("lat")
        for value in (0.0, 0.01, 0.011, 1.0, 5000.0, 5000.5):
            histogram.observe(value)
        assert histogram.counts[BUCKETS.index(0.01)] == 2     # 0.0, 0.01
        assert histogram.counts[BUCKETS.index(0.025)] == 1    # 0.011
        assert histogram.counts[BUCKETS.index(1.0)] == 1
        assert histogram.counts[BUCKETS.index(5000.0)] == 1
        assert histogram.counts[-1] == 1                       # past 5 s
        assert histogram.count == 6
        assert histogram.sum == sum((0.0, 0.01, 0.011, 1.0, 5000.0,
                                     5000.5))

    def test_bucketed_histogram_quantile_is_the_covering_bound(self):
        histogram = Histogram("lat")
        for value in (0.02, 0.02, 0.3, 7.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 0.025
        assert histogram.quantile(0.75) == 0.5
        assert histogram.quantile(1.0) == 10.0
        assert histogram.quantile(0.0) == BUCKETS[0]
        histogram.observe(6000.0)
        assert histogram.quantile(1.0) == math.inf
        summary = histogram.summary()
        assert summary["count"] == 5.0
        assert summary["p50"] == 0.5
        assert summary["p99"] == math.inf
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_registry_histogram_state_is_constant(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("rpc.server_latency")
        histogram.observe(0.5)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for index in range(100_000):
                registry.histogram("rpc.server_latency").observe(
                    (index % 997) * 0.013)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(stat.size_diff
                    for stat in after.compare_to(before, "filename"))
        assert grown < 4096
        assert histogram.count == 100_001

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a").increment()
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 1}
        assert snapshot["histograms"]["h"]["count"] == 1.0
