"""RNG streams, distributions, metrics."""

import math

import pytest

from repro.sim import (Constant, Exponential, Histogram, Lognormal,
                       MetricsRegistry, RandomStreams, Uniform,
                       as_distribution)


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
        histogram = Histogram("lat")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.mean == 2.5
        assert histogram.median == 2.5
        assert histogram.minimum == 1.0
        assert histogram.maximum == 4.0
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 4.0

    def test_histogram_percentile_interpolates(self):
        histogram = Histogram("lat")
        histogram.observe(0.0)
        histogram.observe(10.0)
        assert histogram.percentile(50) == 5.0

    def test_histogram_empty_safe(self):
        histogram = Histogram("lat")
        assert histogram.mean == 0.0
        assert histogram.percentile(99) == 0.0
        assert histogram.stddev == 0.0

    def test_histogram_invalid_percentile(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(150)
        Histogram("x").observe(1.0)

    def test_stddev(self):
        histogram = Histogram("x")
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            histogram.observe(value)
        assert histogram.stddev == pytest.approx(math.sqrt(32 / 7))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a").increment()
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 1}
        assert snapshot["histograms"]["h"]["count"] == 1.0
