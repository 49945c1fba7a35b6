"""Fleet-wide metrics aggregation: merge rules and keyed views."""

import pytest

import math

from repro.obs.aggregate import (FleetView, load_obs_manifest,
                                 render_fleet_view, snapshot_registry,
                                 write_obs_manifest)
from repro.obs.prom import (BUCKET_LABELS, bucket_counts,
                            parse_exposition, render_registry)
from repro.sim.metrics import BUCKETS, Histogram, MetricsRegistry


class TestBucketExposition:
    def test_bucket_counts_are_cumulative(self):
        histogram = Histogram("h")
        for value in (0.5, 3.0, 3.0, 40.0, 9_999.0):
            histogram.observe(value)
        counts = bucket_counts(histogram)
        assert len(counts) == len(BUCKETS) + 1      # ladder + +Inf
        assert counts[BUCKETS.index(1.0)] == 1      # <= 1 ms
        assert counts[BUCKETS.index(5.0)] == 3      # <= 5 ms
        assert counts[-1] == 5                      # +Inf sees all
        assert counts == sorted(counts)

    def test_render_round_trips_through_parser(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("suite.quorum_wait[suite=a]")
        for value in (2.0, 30.0, 700.0):
            histogram.observe(value)
        samples = parse_exposition(render_registry(registry))
        buckets = {labels["le"]: value for name, labels, value in samples
                   if name == "repro_suite_quorum_wait_bucket"}
        assert set(buckets) == set(BUCKET_LABELS)
        assert buckets["+Inf"] == 3.0
        assert buckets["2"] == 1.0
        sums = [value for name, labels, value in samples
                if name == "repro_suite_quorum_wait_sum"]
        assert sums == [pytest.approx(732.0)]


def fleet_of(*registries):
    view = FleetView()
    for index, registry in enumerate(registries):
        view.add_text(f"n{index}", render_registry(registry))
    return view


class TestMergedHistogram:
    def test_quantile_upper_bounds(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("suite.quorum_wait")
        for value in [0.5] * 6 + [40.0] * 3 + [9_000.0]:
            histogram.observe(value)
        merged = fleet_of(registry).histogram("repro_suite_quorum_wait")
        assert merged.mean == 912.3
        assert merged.quantile(0.5) == 0.5
        assert merged.quantile(0.9) == 50.0
        assert merged.quantile(0.95) == math.inf
        assert merged.quantile(0.0) == BUCKETS[0]
        assert "p50<=0.5ms p99>5000ms" in render_fleet_view(
            fleet_of(registry))

    def test_empty_histogram(self):
        merged = FleetView().histogram("repro_suite_quorum_wait")
        assert merged.mean == 0.0
        assert merged.quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            merged.quantile(1.5)

    def test_fleet_equals_one_registry_that_saw_both_streams(self):
        first, second, both = (MetricsRegistry() for _ in range(3))
        streams = ([0.01, 0.5, 3.0, 3.0, 6_000.0],
                   [0.25, 0.75, 1.0, 2_500.0])
        for registry, stream in zip((first, second), streams):
            for value in stream:
                for target in (registry, both):
                    target.histogram("suite.quorum_wait[suite=a]").observe(
                        value)
        merged = fleet_of(first, second).histogram(
            "repro_suite_quorum_wait")
        alone = both.histogram("suite.quorum_wait[suite=a]")
        assert merged.counts == alone.counts
        assert (merged.count, merged.sum) == (alone.count, alone.sum)
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert merged.quantile(q) == alone.quantile(q)

    def test_foreign_ladder_is_an_error_not_a_misfiled_bucket(self):
        registry = MetricsRegistry()
        registry.histogram("suite.quorum_wait").observe(0.02)
        view = fleet_of(registry)
        view.add_text("old", "\n".join([
            'repro_suite_quorum_wait_bucket{le="1"} 4',
            'repro_suite_quorum_wait_bucket{le="+Inf"} 4',
            'repro_suite_quorum_wait_sum 0.2',
            'repro_suite_quorum_wait_count 4',
        ]))
        merged = view.histogram("repro_suite_quorum_wait")
        assert (merged.count, merged.quantile(1.0)) == (1, 0.025)
        assert "old" in view.errors and "n0" not in view.errors
        assert "!! old:" in render_fleet_view(view)


def two_source_view():
    view = FleetView()
    view.add_text("n1", "\n".join([
        'repro_ops_total{suite="a"} 10',
        'repro_suite_quorum_wait_bucket{le="10"} 4',
        'repro_suite_quorum_wait_bucket{le="+Inf"} 6',
        'repro_suite_quorum_wait_sum 90',
        'repro_suite_quorum_wait_count 6',
        'repro_suite_quorum_wait{quantile="0.5"} 9',
        'repro_suite_version_lag{suite="a",rep="r2"} 1',
        'repro_health_breaker_state{server="n2"} 1.0',
    ]))
    view.add_text("n2", "\n".join([
        'repro_ops_total{suite="a"} 5',
        'repro_suite_quorum_wait_bucket{le="10"} 1',
        'repro_suite_quorum_wait_bucket{le="+Inf"} 4',
        'repro_suite_quorum_wait_sum 210',
        'repro_suite_quorum_wait_count 4',
        'repro_suite_version_lag{suite="a",rep="r2"} 3',
        'repro_health_breaker_state{server="n2"} 0.5',
        'repro_quorum_blocking_wait_ms{suite="a",rep="r2"} 80',
        'repro_quorum_blocking_closed_total{suite="a",rep="r2"} 2',
    ]))
    return view


class TestFleetView:
    def test_counters_sum_and_quantiles_are_skipped(self):
        view = two_source_view()
        merged = view.merged_counters()
        assert merged[("repro_ops_total",
                       (("suite", "a"),))] == 15.0
        assert not any(name == "repro_suite_quorum_wait"
                       for name, _labels in merged)
        assert view.counter_total("repro_ops_total") == 15.0

    def test_histograms_merge_bucketwise(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        for value in (0.04, 0.04, 7.0):
            first.histogram("suite.quorum_wait[suite=a]").observe(value)
        for value in (0.3, 7.0, 7.5):
            second.histogram("suite.quorum_wait[suite=b]").observe(value)
        merged = fleet_of(first, second).histogram(
            "repro_suite_quorum_wait")
        assert merged.counts[BUCKETS.index(0.05)] == 2
        assert merged.counts[BUCKETS.index(0.5)] == 1
        assert merged.counts[BUCKETS.index(10.0)] == 3
        assert merged.count == 6
        assert merged.quantile(0.5) == 0.5
        rendered = render_fleet_view(fleet_of(first, second))
        assert "quorum wait: n=6 mean=3.6ms p50<=0.5ms p99<=10ms" \
            in rendered

    def test_gauges_stay_per_source_and_skyline_takes_max(self):
        view = two_source_view()
        series = view.gauge_series("repro_suite_version_lag")
        key = (("rep", "r2"), ("suite", "a"))
        assert series[key] == {"n1": 1.0, "n2": 3.0}
        assert view.version_lag_skyline()[("a", "r2")] == 3.0

    def test_breaker_states_decode_per_source(self):
        view = two_source_view()
        assert view.breaker_states()[("n1", "n2")] == "open"
        assert view.breaker_states()[("n2", "n2")] == "half-open"
        assert view.open_breakers() == [("n1", "n2", "open"),
                                        ("n2", "n2", "half-open")]

    def test_quorum_blocking_report(self):
        report = two_source_view().quorum_blocking()
        assert report.rep_blocked_ms() == {"r2": 80.0}
        assert report.rep_closes() == {"r2": 2}

    def test_errors_recorded_not_raised(self):
        view = two_source_view()
        view.add_error("n3", "ConnectionRefusedError: nope")
        rendered = render_fleet_view(view)
        assert "!! n3" in rendered
        assert "top quorum blockers" in rendered
        assert "version-lag skyline" in rendered
        assert "open circuit breakers" in rendered

    def test_snapshot_registry_uses_exposition_pipeline(self):
        registry = MetricsRegistry()
        registry.counter("ops[suite=a]").increment(4)
        view = snapshot_registry("sim", registry)
        assert view.counter_total("repro_ops_total") == 4.0


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "obs.json")
        addresses = {"n1": ("127.0.0.1", 9001),
                     "n2": ("127.0.0.1", 9002)}
        write_obs_manifest(addresses, path)
        assert load_obs_manifest(path) == addresses

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises((ValueError, KeyError, TypeError,
                            AttributeError)):
            load_obs_manifest(str(path))
