"""The perf subsystem: result schema, registry files, regression
comparison, and the span breakdown behind ``repro perf profile``.

A result file compared against itself exits clean, an injected 2x
latency regression makes the comparator fail, advisory (``gate=False``)
live numbers never fail a compare, and ``repro perf profile`` prints a
per-span breakdown on both runtimes — with the caller's and the
handler's side of each RPC as separate rows — and refuses a run whose
trace buffer overflowed.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.obs import TraceCollector, breakdown
from repro.perf import (DEFAULT_TOLERANCE, RUNTIMES, SCHEMA_VERSION,
                        BenchRegistry, BenchResult, MetricRule,
                        SchemaError, bench_path, compare_results,
                        current_git_sha, discover, infer_direction,
                        load_results, validate_result, write_results)
from repro.testbed import example_data, example_testbed


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
            old, [make_result(value=100.0)]).counts() == {"ok": 1}
        assert compare_results(
            old, [make_result(value=110.0)]).counts() == {"moved": 1}
        report = compare_results(old, [make_result(value=50.0)])
        assert report.counts() == {"improvement": 1}
        assert not report.failed

    def test_moved_rows_are_listed_but_do_not_fail(self):
        # A gated value that changed inside tolerance is a stale
        # baseline: it must show up (and be counted) even without
        # --verbose, in either direction, and never fail the build.
        old = [make_result(value=100.0),
               make_result(metric="reads_per_sec", unit="ops/s",
                           value=200.0),
               make_result(metric="other_latency_ms", value=7.0)]
        new = [make_result(value=96.0),
               make_result(metric="reads_per_sec", unit="ops/s",
                           value=180.0),
               make_result(metric="other_latency_ms", value=7.0)]
        report = compare_results(old, new)
        assert report.counts() == {"moved": 2, "ok": 1}
        assert not report.failed
        rendered = report.render()
        assert rendered.count("  moved") == 2
        assert "other_latency_ms" not in rendered
        assert "1 ok" in rendered and "2 moved" in rendered

    def test_moved_exact_metric_within_abs_tolerance(self):
        old = [make_result(metric="rebalance_moved_suites", unit="count",
                           value=10.0)]
        new = [make_result(metric="rebalance_moved_suites", unit="count",
                           value=11.0)]
        rules = {"rebalance_moved_suites": MetricRule(
            direction="exact", abs_tolerance=2.0)}
        assert compare_results(old, new, rules=rules).counts() == \
            {"moved": 1}

    def test_advisory_rows_never_count_as_moved(self):
        old = [make_result(runtime="live", gate=False, value=10.0)]
        new = [make_result(runtime="live", gate=False, value=11.0)]
        assert compare_results(old, new).counts() == {"info": 1}

    def test_gate_false_is_advisory(self):
        # A 10x live wall-clock swing must never fail the build.
        old = [make_result(runtime="live", gate=False, value=10.0)]
        new = [make_result(runtime="live", gate=False, value=100.0)]
        report = compare_results(old, new)
        assert report.counts() == {"info": 1}
        assert not report.failed

    def test_unknown_direction_is_info(self):
        # No direction: it can never fail — but a gated value that
        # changed is still listed as moved, never hidden.
        old = [make_result(metric="mystery", unit="widgets", value=1.0)]
        new = [make_result(metric="mystery", unit="widgets", value=9.0)]
        assert compare_results(old, old).counts() == {"info": 1}
        report = compare_results(old, new)
        assert report.counts() == {"moved": 1}
        assert not report.failed

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
# Span breakdown (what ``repro perf profile`` prints)
# ---------------------------------------------------------------------------

def assert_hot_path_rows(rows):
    """Both runtimes' breakdowns name the same phases of the protocol."""
    assert {"quorum.assemble", "2pc.commit", "rpc.txn.stat",
            "rpc.txn.stat@server"} <= set(rows)
    # A suite write votes with its stages: no prepare phase to time.
    assert "2pc.prepare" not in rows


class TestSpanBreakdown:
    def test_testbed_spans_cover_hot_path_phases(self):
        bed, config = example_testbed(1, obs=True)
        suite = bed.install(config, example_data())
        for _ in range(3):
            bed.run(suite.read())
            bed.run(suite.write(example_data(b"2")))
        bed.settle()
        assert bed.collector.dropped == 0
        rows = breakdown(bed.collector.spans())
        assert_hot_path_rows(rows)
        assert rows["2pc.commit"][0] == 3
        # A round trip contains the handler it waited for, and the two
        # are separate rows: three reads poll all three representatives;
        # a write's stage is its inquiry.
        assert rows["rpc.txn.stat"][0] == rows["rpc.txn.stat@server"][0] \
            == 9
        assert rows["rpc.txn.stat"][1] > rows["rpc.txn.stat@server"][1]
        # Durations are virtual milliseconds of the sim clock.
        assert rows["quorum.assemble"][1] > 0.0


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

    @staticmethod
    def _printed_rows(out):
        """Span names of the breakdown table ``perf profile`` printed."""
        return {fields[0] for fields in map(str.split, out.splitlines())
                if len(fields) == 4 and fields[1].isdigit()}

    def test_profile_sim_runtime(self, capsys):
        assert cli_main(["perf", "profile", "--runtime", "sim",
                         "--ops", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "span breakdown" in out
        assert_hot_path_rows(self._printed_rows(out))
        assert "0 dropped" in out

    def test_profile_live_runtime(self, capsys):
        assert cli_main(["perf", "profile", "--runtime", "live",
                         "--ops", "8", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert_hot_path_rows(self._printed_rows(out))
        assert "0 dropped" in out
        assert "bench/run.py" in out

    def test_profile_refuses_a_truncated_trace(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.testbed.TraceCollector",
            lambda **kwargs: TraceCollector(capacity=50, **kwargs))
        assert cli_main(["perf", "profile", "--runtime", "sim",
                         "--ops", "20"]) == 1
        captured = capsys.readouterr()
        assert "50 kept" in captured.out
        assert "fewer --ops" in captured.err
