"""The perf subsystem: result schema, registry files, regression
comparison, and the hot-path phase profiler.

Acceptance scenarios from the issue are exercised directly: a result
file compared against itself exits clean, an injected 2x latency
regression makes the comparator fail, advisory (``gate=False``) live
numbers never fail a compare, and ``repro perf profile`` produces a
phase breakdown on both runtimes with self-measured overhead.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.perf import (DEFAULT_TOLERANCE, RUNTIMES, SCHEMA_VERSION,
                        BenchRegistry, BenchResult, MetricRule,
                        PhaseProfiler, SchemaError, bench_path,
                        compare_results, current_git_sha, discover,
                        infer_direction, load_results, validate_result,
                        write_results)
from repro.sim.metrics import MetricsRegistry
from repro.testbed import Testbed, example_data, example_testbed


def make_result(**overrides):
    base = dict(bench="fig_x", metric="read_latency_ms", value=75.0,
                unit="ms", config="example-1", runtime="sim", seed=7)
    base.update(overrides)
    return BenchResult(**base)


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

class TestSchema:
    def test_roundtrip(self):
        result = make_result(git_sha="abc1234", duration_s=0.25)
        raw = result.to_json()
        assert raw["schema"] == SCHEMA_VERSION
        assert BenchResult.from_json(raw) == result
        # JSON-serialisable end to end.
        assert BenchResult.from_json(json.loads(json.dumps(raw))) == result

    def test_key_and_label(self):
        result = make_result()
        assert result.key() == ("fig_x", "read_latency_ms", "example-1",
                                "sim")
        assert result.label() == "fig_x/read_latency_ms/example-1/sim"
        assert make_result(config="").label() == \
            "fig_x/read_latency_ms/sim"

    def test_defaults_fill_missing_optionals(self):
        raw = {"bench": "b", "metric": "m", "value": 1.0, "unit": "ms"}
        result = BenchResult.from_json(raw)
        assert result.runtime == "sim"
        assert result.gate is True
        assert result.seed is None
        assert result.git_sha == "unknown"

    @pytest.mark.parametrize("broken, message", [
        ({"bench": ""}, "bench"),
        ({"metric": None}, "metric"),
        ({"unit": 5}, "unit"),
        ({"value": "fast"}, "value"),
        ({"value": True}, "value"),
        ({"runtime": "gpu"}, "runtime"),
        ({"seed": 1.5}, "seed"),
        ({"gate": "yes"}, "gate"),
        ({"duration_s": "long"}, "duration_s"),
        ({"schema": 99}, "schema"),
    ])
    def test_validation_rejects_bad_fields(self, broken, message):
        raw = make_result().to_json()
        raw.update(broken)
        with pytest.raises(SchemaError) as excinfo:
            validate_result(raw)
        assert message in str(excinfo.value)

    def test_validation_rejects_non_dict(self):
        with pytest.raises(SchemaError):
            validate_result(["not", "a", "record"])

    def test_runtime_vocabulary(self):
        assert RUNTIMES == ("analytic", "sim", "live")
        for runtime in RUNTIMES:
            validate_result(make_result(runtime=runtime).to_json())

    def test_git_sha_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHA", "feedface")
        assert current_git_sha() == "feedface"


# ---------------------------------------------------------------------------
# Registry files
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_bench_path_shape(self, tmp_path):
        assert bench_path("figs", str(tmp_path)) == \
            os.path.join(str(tmp_path), "BENCH_FIGS.json")
        with pytest.raises(ValueError):
            bench_path("../evil", str(tmp_path))
        with pytest.raises(ValueError):
            bench_path("", str(tmp_path))

    def test_write_load_roundtrip_sorted_and_stable(self, tmp_path):
        path = bench_path("figs", str(tmp_path))
        second = make_result(metric="write_latency_ms", value=99.0)
        first = make_result()
        write_results(path, [second, first])
        loaded = load_results(path)
        assert loaded == sorted([first, second],
                                key=lambda result: result.key())
        # Regenerating with the same records is byte-identical.
        before = open(path, encoding="utf-8").read()
        write_results(path, [first, second])
        assert open(path, encoding="utf-8").read() == before
        assert before.endswith("\n")

    def test_load_rejects_bad_envelope(self, tmp_path):
        path = tmp_path / "BENCH_BAD.json"
        path.write_text(json.dumps({"schema": 2, "results": []}))
        with pytest.raises(SchemaError):
            load_results(str(path))
        path.write_text(json.dumps({"schema": 1, "results": [{}]}))
        with pytest.raises(SchemaError) as excinfo:
            load_results(str(path))
        assert "result #0" in str(excinfo.value)

    def test_record_replaces_same_key_and_merges_disk(self, tmp_path):
        registry = BenchRegistry(root=str(tmp_path))
        registry.record("figs", make_result(value=1.0))
        registry.record("figs", make_result(value=2.0))  # same key
        (written,) = registry.flush()
        assert load_results(written)[0].value == 2.0

        # A fresh registry (new pytest item, same process pattern) must
        # merge with what is already on disk, not clobber it.
        other = BenchRegistry(root=str(tmp_path))
        other.record("figs", make_result(metric="write_latency_ms",
                                         value=3.0))
        other.flush()
        assert len(load_results(written)) == 2

    def test_discover(self, tmp_path):
        write_results(bench_path("figs", str(tmp_path)), [make_result()])
        write_results(bench_path("obs", str(tmp_path)), [make_result()])
        (tmp_path / "not_bench.json").write_text("{}")
        names = [os.path.basename(path)
                 for path in discover(str(tmp_path))]
        assert names == ["BENCH_FIGS.json", "BENCH_OBS.json"]


# ---------------------------------------------------------------------------
# Regression comparison
# ---------------------------------------------------------------------------

class TestCompare:
    def test_direction_inference(self):
        assert infer_direction("read_latency_ms", "ms") == "lower"
        assert infer_direction("reads_per_sec", "ops/s") == "higher"
        assert infer_direction("write_availability",
                               "probability") == "higher"
        assert infer_direction("mystery", "widgets") is None

    def test_exact_direction_inference_wins_over_other_hints(self):
        assert infer_direction("placement_checksum", "digest") == "exact"
        assert infer_direction("rebalance_moved_suites",
                               "count") == "exact"
        # "placement" beats the "_ms"/"message" lower-hints.
        assert infer_direction("placement_messages", "count") == "exact"

    def test_exact_metric_fails_on_any_move(self):
        old = [make_result(metric="placement_checksum", unit="digest",
                           value=12345.0)]
        same = [make_result(metric="placement_checksum", unit="digest",
                            value=12345.0)]
        drift = [make_result(metric="placement_checksum", unit="digest",
                             value=12346.0)]
        assert not compare_results(old, same).failed
        report = compare_results(old, drift)
        assert report.failed
        (delta,) = report.regressions
        assert delta.direction == "exact"
        assert "= required" in report.render()

    def test_exact_metric_fails_in_both_directions(self):
        old = [make_result(metric="layout_digest", unit="digest",
                           value=100.0)]
        assert compare_results(old, [make_result(
            metric="layout_digest", unit="digest", value=99.0)]).failed
        assert compare_results(old, [make_result(
            metric="layout_digest", unit="digest", value=101.0)]).failed

    def test_exact_abs_tolerance_grants_slack(self):
        old = [make_result(metric="rebalance_moved_suites", unit="count",
                           value=10.0)]
        new = [make_result(metric="rebalance_moved_suites", unit="count",
                           value=11.0)]
        assert compare_results(old, new).failed
        rules = {"rebalance_moved_suites": MetricRule(
            direction="exact", abs_tolerance=2.0)}
        assert not compare_results(old, new, rules=rules).failed

    def test_exact_respects_gate_false(self):
        old = [make_result(metric="placement_checksum", unit="digest",
                           runtime="live", gate=False, value=1.0)]
        new = [make_result(metric="placement_checksum", unit="digest",
                           runtime="live", gate=False, value=2.0)]
        report = compare_results(old, new)
        assert report.counts() == {"info": 1}
        assert not report.failed

    def test_identical_files_are_clean(self):
        results = [make_result(), make_result(metric="reads", value=9.0,
                                              unit="count")]
        report = compare_results(results, results)
        assert not report.failed
        assert report.regressions == []
        assert "REGRESSION" not in report.render()

    def test_injected_2x_latency_regression_fails(self):
        old = [make_result(value=75.0)]
        new = [make_result(value=150.0)]
        report = compare_results(old, new)
        assert report.failed
        (delta,) = report.regressions
        assert delta.change == pytest.approx(1.0)
        assert delta.direction == "lower"
        assert "REGRESSION" in report.render()

    def test_throughput_drop_is_a_regression_too(self):
        old = [make_result(metric="reads_per_sec", unit="ops/s",
                           value=2000.0)]
        new = [make_result(metric="reads_per_sec", unit="ops/s",
                           value=900.0)]
        assert compare_results(old, new).failed

    def test_improvement_and_within_tolerance(self):
        old = [make_result(value=100.0)]
        assert compare_results(
            old, [make_result(value=110.0)]).counts() == {"ok": 1}
        report = compare_results(old, [make_result(value=50.0)])
        assert report.counts() == {"improvement": 1}
        assert not report.failed

    def test_gate_false_is_advisory(self):
        # A 10x live wall-clock swing must never fail the build.
        old = [make_result(runtime="live", gate=False, value=10.0)]
        new = [make_result(runtime="live", gate=False, value=100.0)]
        report = compare_results(old, new)
        assert report.counts() == {"info": 1}
        assert not report.failed

    def test_unknown_direction_is_info(self):
        old = [make_result(metric="mystery", unit="widgets", value=1.0)]
        new = [make_result(metric="mystery", unit="widgets", value=9.0)]
        assert compare_results(old, new).counts() == {"info": 1}

    def test_new_and_removed_metrics(self):
        old = [make_result(metric="gone")]
        new = [make_result(metric="fresh")]
        report = compare_results(old, new)
        assert report.counts() == {"new": 1, "removed": 1}
        assert not report.failed
        rendered = report.render()
        assert "new" in rendered and "removed" in rendered

    def test_explicit_rule_overrides_inference(self):
        # "mystery" has no inferable direction; a rule makes it gate.
        old = [make_result(metric="mystery", unit="widgets", value=10.0)]
        new = [make_result(metric="mystery", unit="widgets", value=20.0)]
        rules = {"mystery": MetricRule(direction="lower",
                                       rel_tolerance=0.1)}
        assert compare_results(old, new, rules=rules).failed

    def test_abs_tolerance_shields_near_zero_baselines(self):
        old = [make_result(metric="stale_reads", unit="count",
                           value=0.0)]
        new = [make_result(metric="stale_reads", unit="count",
                           value=0.5)]
        assert compare_results(old, new).failed   # inf relative change
        rules = {"stale_reads": MetricRule(direction="lower",
                                           abs_tolerance=1.0)}
        assert not compare_results(old, new, rules=rules).failed

    def test_tolerance_default(self):
        assert DEFAULT_TOLERANCE == 0.25
        old = [make_result(value=100.0)]
        new = [make_result(value=124.0)]   # inside 25%
        assert not compare_results(old, new).failed
        assert compare_results(old, new, tolerance=0.1).failed


# ---------------------------------------------------------------------------
# Phase profiler
# ---------------------------------------------------------------------------

class TestProfiler:
    def _ticking(self):
        clock = iter(range(0, 10000, 5))
        return PhaseProfiler(clock=lambda: float(next(clock)))

    def test_start_stop_and_observe(self):
        profiler = self._ticking()
        token = profiler.start()
        profiler.stop("rpc.serve", token)            # 5ms tick
        profiler.observe("rpc.serve", 15.0)
        profiler.count("rpc.retransmit")
        stats = profiler.stats()
        assert stats["rpc.serve"].count == 2
        assert stats["rpc.serve"].total == 20.0
        assert stats["rpc.serve"].mean == 10.0
        assert stats["rpc.serve"].minimum == 5.0
        assert stats["rpc.serve"].maximum == 15.0
        assert stats["rpc.retransmit"].count == 1
        assert profiler.samples == 3

    def test_measure_context_manager_records_on_error(self):
        profiler = self._ticking()
        with pytest.raises(RuntimeError):
            with profiler.measure("2pc.prepare"):
                raise RuntimeError("abort")
        assert profiler.stats()["2pc.prepare"].count == 1

    def test_disabled_profiler_records_nothing(self):
        profiler = PhaseProfiler(clock=lambda: 0.0, enabled=False)
        profiler.observe("x", 1.0)
        profiler.stop("x", profiler.start())
        assert profiler.stats() == {}
        assert profiler.samples == 0

    def test_top_and_render(self):
        profiler = self._ticking()
        profiler.observe("small", 1.0)
        profiler.observe("big", 100.0)
        assert [name for name, _ in profiler.top(1)] == ["big"]
        text = profiler.render(top_n=2, unit="sim ms")
        assert "big" in text and "small" in text and "sim ms" in text
        profiler.reset()
        assert profiler.render() == "(no phases recorded)"
        assert profiler.samples == 0

    def test_publish_mirrors_into_metrics(self):
        profiler = self._ticking()
        profiler.observe("quorum.assemble", 30.0)
        registry = MetricsRegistry()
        profiler.publish(registry)
        assert registry.gauge(
            "perf.phase.quorum.assemble.count").value == 1.0
        assert registry.gauge(
            "perf.phase.quorum.assemble.mean").value == 30.0

    def test_calibration_and_overhead_fraction(self):
        profiler = PhaseProfiler(clock=lambda: 0.0)
        cost = profiler.calibrate(iterations=2000)
        assert cost > 0.0
        # Calibration never leaks a phase or inflates the sample count.
        assert "__calibration__" not in profiler.stats()
        assert profiler.samples == 0
        profiler.observe("x", 1.0)
        assert profiler.overhead_fraction(1.0) == pytest.approx(cost)
        assert profiler.overhead_fraction(0.0) == 0.0

    def test_testbed_profile_captures_hot_path_phases(self):
        bed, config = example_testbed(1, profile=True)
        suite = bed.install(config, example_data())
        for _ in range(3):
            bed.run(suite.read())
            bed.run(suite.write(example_data(b"2")))
        bed.settle()
        stats = bed.profiler.stats()
        assert {"quorum.assemble", "2pc.commit", "rpc.roundtrip",
                "rpc.serve"} <= set(stats)
        assert stats["2pc.commit"].count >= 3
        # A suite write votes with its stages: no prepare phase to time.
        assert "2pc.prepare" not in stats
        # Phase durations are virtual milliseconds of the sim clock.
        assert stats["quorum.assemble"].total > 0.0
        # The profiler stays off unless asked for.
        assert Testbed(servers=["s1"]).profiler is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestPerfCli:
    def _write(self, tmp_path, name, results):
        path = str(tmp_path / name)
        write_results(path, results)
        return path

    def test_compare_identical_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "old.json", [make_result()])
        assert cli_main(["perf", "compare", path, path]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_compare_regression_exits_nonzero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json",
                          [make_result(value=75.0)])
        new = self._write(tmp_path, "new.json",
                          [make_result(value=150.0)])
        assert cli_main(["perf", "compare", old, new]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "75 → 150" in out

    def test_compare_tolerance_flag(self, tmp_path):
        old = self._write(tmp_path, "old.json",
                          [make_result(value=100.0)])
        new = self._write(tmp_path, "new.json",
                          [make_result(value=120.0)])
        assert cli_main(["perf", "compare", old, new]) == 0
        assert cli_main(["perf", "compare", "--tolerance", "0.05",
                         old, new]) == 1

    def test_compare_missing_file_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "old.json", [make_result()])
        missing = str(tmp_path / "nope.json")
        assert cli_main(["perf", "compare", path, missing]) == 2
        assert "repro perf compare" in capsys.readouterr().err

    def test_profile_sim_runtime(self, capsys):
        assert cli_main(["perf", "profile", "--runtime", "sim",
                         "--ops", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "quorum.assemble" in out
        assert "2pc.commit" in out and "2pc.prepare" not in out
        assert "overhead" in out

    def test_profile_live_runtime(self, capsys):
        assert cli_main(["perf", "profile", "--runtime", "live",
                         "--ops", "8", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "frame.encode" in out
        assert "frame.decode" in out
        assert "storage.page_write" in out
