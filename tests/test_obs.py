"""Observability: causal spans, sinks, exposition, CLI and wiring.

Covers the obs package's primitives (spans, collector, Prometheus
rendering, timelines), the per-layer instrumentation (RPC endpoint,
2PC coordinator, suite client, participant version-lag gauges), and the
two acceptance scenarios: a quorum write on the deterministic testbed
and on the live loopback cluster must each produce one stitched trace —
one trace id spanning coordinator and participants, with parent links
and both two-phase-commit phases — and a live daemon must expose
Prometheus text on ``/metrics``.
"""

import asyncio
import io
import json

import pytest

from repro.cli import main as cli_main
from repro.core import change_configuration, make_configuration
from repro.core.examples import example_configuration
from repro.live import LoopbackCluster
from repro.obs import (NOOP_SPAN, JsonlSink, RingBufferSink,
                       TraceCollector, TraceContext, breakdown,
                       dump_jsonl, dumps_jsonl, fetch, group_traces,
                       load_jsonl, parse_exposition, render_registry,
                       render_trace, split_labels, summarize)
from repro.sim.metrics import Histogram, MetricsRegistry
from repro.sim.simulator import Simulator
from repro.sim.trace import Tracer
from repro.testbed import Testbed


def make_config(name="obs", servers=("s1", "s2", "s3"), r=2, w=2):
    return make_configuration(
        name, [(server, 1) for server in servers], r, w,
        latency_hints={server: 10.0 * (index + 1)
                       for index, server in enumerate(servers)})


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

class TestCollector:
    def test_trace_and_child_spans(self):
        clock = iter(range(100))
        collector = TraceCollector(clock=lambda: float(next(clock)),
                                   origin="p1")
        root = collector.start_trace("op", kind="client", suite="f")
        child = collector.start_span("phase", parent=root)
        child.event("tick", n=1)
        child.end()
        root.end()
        spans = collector.spans()
        assert [span.name for span in spans] == ["phase", "op"]
        assert child.trace_id == root.trace_id == "p1-t1"
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        assert child.events[0].name == "tick"
        assert root.attrs == {"suite": "f"}

    def test_disabled_collector_is_noop(self):
        collector = TraceCollector(clock=lambda: 0.0, enabled=False)
        span = collector.start_trace("op")
        assert span is NOOP_SPAN
        assert not span
        assert span.context is None
        span.event("ignored")
        span.end(error="ignored")
        assert collector.spans() == []
        assert collector.start_span("child", parent=span) is NOOP_SPAN

    def test_remote_context_parents_server_span(self):
        collector = TraceCollector(clock=lambda: 0.0, origin="server")
        context = TraceContext.from_wire(
            {"trace_id": "client-t9", "span_id": "client-s4"})
        span = collector.start_span("rpc.read", parent=context,
                                    kind="server")
        span.end()
        assert span.trace_id == "client-t9"
        assert span.parent_id == "client-s4"
        assert span.origin == "server"

    def test_error_end_records_status(self):
        collector = TraceCollector(clock=lambda: 0.0)
        span = collector.start_trace("op")
        span.end(error="boom")
        span.end(error="again")  # idempotent
        (finished,) = collector.spans()
        assert finished.status == "error"
        assert finished.error == "boom"

    def test_ring_buffer_counts_drops(self):
        sink = RingBufferSink(capacity=2)
        collector = TraceCollector(clock=lambda: 0.0, sinks=None,
                                   capacity=2)
        for index in range(5):
            collector.start_trace(f"op{index}").end()
        assert len(collector.spans()) == 2
        assert collector.dropped == 3
        assert [span.name for span in collector.spans()] == ["op3", "op4"]
        sink.emit(collector.spans()[0])
        assert sink.dropped == 0

    def test_jsonl_sink_owned_file_flushes_on_close(self, tmp_path):
        # Regression: the sink opens (and therefore owns) the file when
        # given a path; closing must flush buffered spans to disk and
        # actually close the handle, and must be safe to call twice.
        path = tmp_path / "spans.jsonl"
        collector = TraceCollector(clock=lambda: 0.0, origin="p")
        sink = JsonlSink(str(path))
        collector.sinks.append(sink)
        collector.start_trace("op").end()
        sink.close()
        assert sink.closed
        sink.close()  # idempotent
        sink.flush()  # no-op after close, never raises
        loaded = load_jsonl(str(path))
        assert [span.name for span in loaded] == ["op"]
        with pytest.raises(ValueError):
            sink.emit(collector.spans()[0])

    def test_jsonl_sink_context_manager(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        collector = TraceCollector(clock=lambda: 0.0, origin="p")
        with JsonlSink(str(path)) as sink:
            collector.sinks.append(sink)
            collector.start_trace("a").end()
            collector.start_trace("b").end()
        assert sink.closed
        assert [span.name for span in load_jsonl(str(path))] == ["a", "b"]

    def test_jsonl_sink_leaves_caller_handle_open(self):
        handle = io.StringIO()
        collector = TraceCollector(clock=lambda: 0.0)
        with JsonlSink(handle) as sink:
            collector.sinks.append(sink)
            collector.start_trace("op").end()
        assert not handle.closed  # caller owns its handle's lifetime
        assert len(load_jsonl(io.StringIO(handle.getvalue()))) == 1

    def test_jsonl_roundtrip(self):
        collector = TraceCollector(clock=lambda: 1.5, origin="x")
        root = collector.start_trace("op", kind="client", k="v")
        child = collector.start_span("inner", parent=root)
        child.event("e", a=1)
        child.end()
        root.end(error="late")
        text = dumps_jsonl(collector.spans())
        loaded = load_jsonl(io.StringIO(text))
        assert len(loaded) == 2
        by_name = {span.name: span for span in loaded}
        assert by_name["inner"].parent_id == root.span_id
        assert by_name["inner"].events[0].attrs == {"a": 1}
        assert by_name["op"].status == "error"
        assert by_name["op"].attrs == {"k": "v"}


class TestProm:
    def test_labelled_names_render_as_series(self):
        registry = MetricsRegistry()
        registry.counter("rpc.calls_sent").increment(3)
        registry.gauge("rep.version_lag[file=suite:f,server=s1]").set(2.0)
        registry.histogram("suite.quorum_wait").observe(4.0)
        text = render_registry(registry)
        assert "# TYPE repro_rpc_calls_sent_total counter" in text
        assert "repro_rpc_calls_sent_total 3" in text
        assert ('repro_rep_version_lag{file="suite:f",server="s1"} 2'
                in text)
        assert ('repro_rep_version_lag_max{file="suite:f",server="s1"} 2'
                in text)
        assert 'repro_suite_quorum_wait{quantile="0.5"} 4' in text
        assert "repro_suite_quorum_wait_count 1" in text

    def test_parse_inverts_render(self):
        registry = MetricsRegistry()
        registry.counter("a.b").increment()
        registry.gauge("g[x=1]").set(-2.5)
        samples = parse_exposition(render_registry(
            registry, extra={"ring.dropped": 7.0}))
        as_map = {(name, tuple(sorted(labels.items()))): value
                  for name, labels, value in samples}
        assert as_map[("repro_a_b_total", ())] == 1.0
        assert as_map[("repro_g", (("x", "1"),))] == -2.5
        assert as_map[("repro_ring_dropped", ())] == 7.0

    def test_split_labels(self):
        assert split_labels("plain") == ("plain", {})
        assert split_labels("f[a=1,b=x y]") == ("f", {"a": "1",
                                                     "b": "x y"})


class TestSatellites:
    def test_tracer_counts_capacity_drops(self, ):
        sim = Simulator()
        tracer = Tracer(sim, enabled=True, capacity=2)
        for index in range(5):
            tracer.record("c", "e", i=index)
        assert len(tracer.records) == 2
        assert tracer.dropped == 3
        assert tracer.stats() == {"records": 2, "dropped": 3,
                                  "capacity": 2}
        assert "3 record(s) dropped" in tracer.dump()
        tracer.clear()
        assert tracer.dropped == 0

    def test_snapshot_includes_gauge_maximum(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        gauge.set(4.0)
        gauge.set(1.0)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["inflight"] == {"value": 1.0,
                                                 "max": 4.0}

    def test_histogram_sort_cache_tracks_observations(self):
        histogram = Histogram("lat")
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        assert histogram.percentile(50) == 2.0
        assert histogram._sorted == [1.0, 2.0, 3.0]  # cached
        histogram.observe(0.0)  # invalidates
        assert histogram._sorted is None
        assert histogram.percentile(0) == 0.0
        summary = histogram.summary()
        assert summary["p50"] == 1.5
        histogram.samples = [5.0]  # wholesale assignment invalidates
        assert histogram.percentile(100) == 5.0


class TestLabelEscaping:
    """Round-trip of label values through the exposition format.

    A chained-``replace`` unescape pairs the wrong backslash with the
    quote in mixed sequences, so the decoder scans left to right; these
    values are the ones that told the two apart."""

    HOSTILE = ['plain', 'quo"te', 'back\\slash', 'both\\"mixed',
               '\\\\"', 'trailing\\', 'new\nline', '\\"\\"\\"']

    def test_values_survive_render_and_parse(self):
        registry = MetricsRegistry()
        for index, value in enumerate(self.HOSTILE):
            registry.gauge(f"g{index}[v={value}]").set(float(index))
        samples = parse_exposition(render_registry(registry))
        decoded = {name: labels["v"] for name, labels, _value in samples
                   if "v" in labels and not name.endswith("_max")}
        for index, value in enumerate(self.HOSTILE):
            assert decoded[f"repro_g{index}"] == value


class TestTornJsonl:
    def _spans(self, count=4):
        clock = iter(range(100))
        collector = TraceCollector(clock=lambda: float(next(clock)),
                                   origin="p1")
        for index in range(count):
            collector.start_trace(f"op{index}").end()
        return collector.spans()

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            dump_jsonl(self._spans(), handle)
        raw = path.read_text()
        path.write_text(raw[:-20])           # crash mid-final-record
        log = load_jsonl(str(path))
        assert len(log) == 3
        assert log.dropped_bytes > 0
        assert [span.name for span in log] == ["op0", "op1", "op2"]

    def test_intact_file_reports_no_drops(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            dump_jsonl(self._spans(), handle)
        log = load_jsonl(str(path))
        assert len(log) == 4
        assert log.dropped_bytes == 0

    def test_corruption_before_real_records_still_raises(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            dump_jsonl(self._spans(), handle)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]             # a hole, not a torn tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_jsonl(str(path))


class TestJsonlSinkRotation:
    def _span(self):
        clock = iter(range(100))
        collector = TraceCollector(clock=lambda: float(next(clock)),
                                   origin="p1")
        collector.start_trace("op", pad="x" * 128).end()
        return collector.spans()[0]

    def test_rotation_bounds_retained_bytes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path, max_bytes=1024, keep=3)
        for _index in range(64):
            sink.emit(self._span())
        sink.close()
        assert sink.rotations > 2
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["trace.jsonl", "trace.jsonl.1",
                         "trace.jsonl.2"]
        for name in names[1:]:
            assert (tmp_path / name).stat().st_size <= 1024
        # The retained window reads back oldest-first, torn-free.
        retained = []
        for name in ["trace.jsonl.2", "trace.jsonl.1", "trace.jsonl"]:
            retained.extend(load_jsonl(str(tmp_path / name)))
        assert len(retained) >= 6            # keep * (cap / span size)

    def test_rotation_requires_a_path(self):
        with pytest.raises(ValueError):
            JsonlSink(io.StringIO(), max_bytes=4096)

    def test_tiny_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "t.jsonl"), max_bytes=10)


# ---------------------------------------------------------------------------
# Stitched traces: deterministic testbed
# ---------------------------------------------------------------------------

class TestTestbedTracing:
    def test_quorum_write_produces_one_stitched_trace(self):
        bed = Testbed(servers=["s1", "s2", "s3"], obs=True)
        config = make_config()
        suite = bed.install(config, b"v1")
        bed.collector.ring.clear()

        write = bed.run(suite.write(b"v2"))
        spans = bed.collector.spans()
        roots = [span for span in spans
                 if span.parent_id is None and span.name == "suite.write"]
        assert len(roots) == 1
        root = roots[0]
        members = [span for span in spans
                   if span.trace_id == root.trace_id]
        names = {span.name for span in members}
        assert {"suite.write", "quorum.assemble", "2pc.commit"} <= names
        # The stages carried the votes: there was no prepare phase to
        # span (``test_transact_trace_has_both_phases`` has one).
        assert "2pc.prepare" not in names

        # Parent links: every non-root member resolves inside the trace.
        ids = {span.span_id for span in members}
        for span in members:
            if span is not root:
                assert span.parent_id in ids

        # Server-side spans cover every quorum participant, each hanging
        # off the coordinator's matching client-side RPC span.
        server_spans = [span for span in members if span.kind == "server"]
        by_id = {span.span_id: span for span in members}
        for span in server_spans:
            assert by_id[span.parent_id].kind == "client"
        quorum_servers = {rep.server for rep in config.representatives
                          if rep.rep_id in write.quorum}
        stage_servers = {span.attrs.get("destination")
                         for span in members
                         if span.kind == "client"
                         and span.name == "rpc.txn.stage_write"}
        assert quorum_servers <= stage_servers

        # The quorum-assembly span carries its version-collect events.
        (qspan,) = [span for span in members
                    if span.name == "quorum.assemble"]
        assert any(event.name == "version.collect"
                   for event in qspan.events)
        assert any(event.name == "quorum.satisfied"
                   for event in qspan.events)

    def test_transact_trace_has_both_phases(self):
        """A caller's transaction stages without voting, so its commit
        runs — and spans — the prepare round."""
        bed = Testbed(servers=["s1", "s2", "s3"], obs=True)
        suite = bed.install(make_config(), b"v1")
        bed.collector.ring.clear()
        root = bed.collector.start_trace("app.bump")

        def bump(txn):
            txn.span = root
            return (yield from suite.write_in(txn, b"v2"))

        bed.run(suite.transact(bump))
        members = [span for span in bed.collector.spans()
                   if span.trace_id == root.trace_id]
        phases = {span.name: span for span in members
                  if span.name.startswith("2pc.")}
        assert set(phases) == {"2pc.prepare", "2pc.commit"}
        assert phases["2pc.prepare"].attrs["votes"] == 3
        asked = [span.attrs["destination"] for span in members
                 if span.kind == "client"
                 and span.name == "rpc.txn.prepare"]
        assert sorted(asked) == ["s1", "s2", "s3"]

    def test_obs_disabled_by_default_and_costless(self):
        bed = Testbed(servers=["s1", "s2", "s3"])
        suite = bed.install(make_config(), b"v1")
        bed.run(suite.write(b"v2"))
        assert bed.collector.spans() == []

    def test_quorum_metrics_and_version_lag(self):
        bed = Testbed(servers=["s1", "s2", "s3"], obs=True)
        suite = bed.install(make_config(), b"v1")

        bed.crash("s3")
        bed.run(suite.write(b"v2"))   # s3 left stale at version 1
        bed.restart("s3")
        bed.settle()                  # background refresh repairs s3

        # While the refresher's stage landed, s3 was one version behind
        # the suite; once the repair committed, its copy is current.
        lag = bed.metrics.gauge(
            f"rep.version_lag[file={suite.config.file_name},server=s3]")
        assert lag.maximum >= 1.0     # observed while catching up
        assert lag.value == 0.0       # reset when the commit applied

        counters = bed.metrics.counters()
        assert counters["rpc.calls_sent"] > 0
        assert counters["rpc.requests_served"] > 0
        # One gather: the write's.  The refresh installs the bytes the
        # write handed over and assembles no quorum of its own.
        assert bed.metrics.histogram("suite.quorum_wait").count == 1
        sizes = bed.metrics.histogram("suite.quorum_size").samples
        assert sizes and all(size >= 2 for size in sizes)

    def test_config_adoption_counted_in_attempts(self):
        """Regression: a ``StaleConfigurationError`` restart used to
        leave ``result.attempts`` at 1 and the trace silent — the
        result claimed a one-shot read that actually ran two
        transactions.  Both the result and the root span must count
        the adoption round."""
        bed = Testbed(servers=["s1", "s2", "s3"], obs=True)
        suite = bed.install(make_config(), b"data")
        bed.run(change_configuration(suite, make_config(r=1, w=3)))
        bed.settle()
        stale = bed.suite(make_config())
        bed.collector.ring.clear()

        result = bed.run(stale.read())
        assert result.data == b"data"
        assert stale.config.config_version == 2
        assert result.attempts == 2
        assert result.config_refreshes == 1

        roots = [span for span in bed.collector.spans()
                 if span.parent_id is None and span.name == "suite.read"]
        assert len(roots) == 1
        root = roots[0]
        assert root.attrs["attempts"] == 2
        assert root.attrs["config_refreshes"] == 1
        assert any(event.name == "config.adopted"
                   for event in root.events)

    def test_rpc_timeout_counters(self):
        bed = Testbed(servers=["s1", "s2", "s3"], call_timeout=100.0)
        suite = bed.install(make_config(), b"v1")
        suite.refresher.enabled = False
        suite.max_attempts = 1
        suite.inquiry_timeout = 150.0
        bed.crash("s2")
        bed.crash("s3")
        with pytest.raises(Exception):
            bed.run(suite.read())
        bed.settle(grace=2_000.0)
        counters = bed.metrics.counters()
        assert counters.get("rpc.timeouts", 0) > 0
        assert counters.get("rpc.retransmissions", 0) > 0
        assert counters.get("suite.quorum_failures", 0) >= 1


# ---------------------------------------------------------------------------
# Stitched traces: live loopback cluster
# ---------------------------------------------------------------------------

class TestLiveTracing:
    def test_loopback_write_stitches_one_trace(self):
        config = make_config("obs-live")

        async def scenario():
            async with LoopbackCluster(["s1", "s2", "s3"]) as cluster:
                suite = await cluster.install(config, b"v1")
                cluster.client.collector.ring.clear()
                write = await cluster.write(suite, b"v2")
                return write, cluster.merged_spans()

        write, spans = asyncio.run(scenario())
        roots = [span for span in spans
                 if span.parent_id is None and span.name == "suite.write"]
        assert len(roots) == 1
        root = roots[0]
        members = [span for span in spans
                   if span.trace_id == root.trace_id]

        # One trace id covering the coordinator and every quorum
        # participant's server-side spans.
        assert root.origin == "client"
        server_origins = {span.origin for span in members
                          if span.kind == "server"}
        quorum_servers = {rep.server for rep in config.representatives
                          if rep.rep_id in write.quorum}
        assert quorum_servers <= server_origins

        # Quorum assembly and the decision round (the votes rode the
        # stages), with resolvable parent links throughout.
        names = {span.name for span in members}
        assert {"quorum.assemble", "2pc.commit"} <= names
        assert "2pc.prepare" not in names
        ids = {span.span_id for span in members}
        for span in members:
            if span is not root:
                assert span.parent_id in ids

        # The merged trace exports as JSONL and reloads intact.
        text = dumps_jsonl(members)
        assert len(load_jsonl(io.StringIO(text))) == len(members)

    def test_metrics_endpoint_serves_prometheus_text(self):
        config = make_config("obs-scrape")

        async def scenario():
            async with LoopbackCluster(["s1", "s2", "s3"]) as cluster:
                suite = await cluster.install(config, b"v1")
                await cluster.write(suite, b"v2")
                results = {}
                for name, (host, port) in cluster.obs_addresses().items():
                    status, body = await fetch(host, port, "/metrics")
                    health_status, health = await fetch(host, port,
                                                        "/healthz")
                    trace_status, trace = await fetch(host, port,
                                                      "/trace")
                    results[name] = (status, body, health_status,
                                     json.loads(health), trace_status,
                                     trace)
                return results

        results = asyncio.run(scenario())
        assert set(results) == {"s1", "s2", "s3"}
        staged = 0
        for name, (status, body, health_status, health, trace_status,
                   trace) in results.items():
            assert status == 200
            assert "# TYPE repro_rpc_requests_served_total counter" \
                in body
            assert health_status == 200
            assert health["status"] == "ok"
            assert health["server"] == name
            assert health["commits"] >= 1
            assert trace_status == 200
            if "repro_rep_version_lag" in body:
                staged += 1
                samples = {sample_name
                           for sample_name, _, _ in
                           parse_exposition(body)}
                assert "repro_rep_version_lag" in samples
                spans = load_jsonl(io.StringIO(trace))
                assert any(span.kind == "server" for span in spans)
        # The write staged on at least a write quorum of servers.
        assert staged >= 2

    def test_obs_false_disables_tracing_and_endpoint(self):
        config = make_config("obs-off")

        async def scenario():
            async with LoopbackCluster(["s1", "s2", "s3"],
                                       obs=False) as cluster:
                suite = await cluster.install(config, b"v1")
                await cluster.write(suite, b"v2")
                return cluster.obs_addresses(), cluster.merged_spans()

        addresses, spans = asyncio.run(scenario())
        assert addresses == {}
        assert spans == []


# ---------------------------------------------------------------------------
# Timelines and CLI
# ---------------------------------------------------------------------------

class TestTimelineAndCli:
    def _traced_bed(self):
        bed = Testbed(servers=["s1", "s2", "s3"], obs=True)
        suite = bed.install(make_config(), b"v1")
        bed.collector.ring.clear()
        bed.run(suite.read())
        bed.run(suite.write(b"v2"))
        return bed

    def test_render_and_summarize(self):
        bed = self._traced_bed()
        spans = bed.collector.spans()
        summaries = summarize(spans)
        names = [summary.root_name for summary in summaries]
        assert "suite.read" in names and "suite.write" in names
        traces = group_traces(spans)
        write_id = next(summary.trace_id for summary in summaries
                        if summary.root_name == "suite.write")
        text = render_trace(traces[write_id])
        assert "suite.write" in text
        assert "2pc.commit" in text and "2pc.prepare" not in text
        assert "quorum.satisfied" in text

    def test_breakdown_feeds_bench_rows(self):
        bed = self._traced_bed()
        rows = breakdown(bed.collector.spans())
        assert rows["2pc.commit"][0] == 1 and "2pc.prepare" not in rows
        assert rows["rpc.txn.prepare"][0] == 2  # the release, both ends
        assert rows["quorum.assemble"][0] == 2  # one read, one write
        for _name, (count, mean) in rows.items():
            assert count >= 1 and mean >= 0.0

    def test_trace_cli_lists_and_renders(self, tmp_path, capsys):
        bed = self._traced_bed()
        export = tmp_path / "spans.jsonl"
        assert bed.collector.export_jsonl(str(export)) > 0

        assert cli_main(["trace", str(export), "--list"]) == 0
        listing = capsys.readouterr().out
        assert "suite.write" in listing

        assert cli_main(["trace", str(export),
                         "--operation", "suite.write"]) == 0
        rendered = capsys.readouterr().out
        assert "2pc.commit" in rendered
        assert "suite.read" not in rendered

        assert cli_main(["trace", str(export), "--trace-id",
                         "nope"]) == 1

    def test_metrics_cli_reports_unreachable(self, capsys):
        # Port 1 on loopback: nothing listens there.
        assert cli_main(["metrics", "--port", "1",
                         "--timeout", "0.5"]) == 1
        assert "cannot scrape" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Timeline edge cases
# ---------------------------------------------------------------------------

class TestTimelineEdges:
    def _collector(self, origin=""):
        clock = iter(range(1000))
        return TraceCollector(clock=lambda: float(next(clock)),
                              origin=origin)

    def test_render_empty_span_set(self):
        assert render_trace([]) == "(no spans)"
        assert summarize([]) == []
        assert breakdown([]) == {}

    def test_orphan_spans_are_marked_not_dropped(self):
        # A child whose parent's process was not merged into the export:
        # it must still render, flagged, under the orphan marker.
        collector = self._collector(origin="server")
        remote = TraceContext(trace_id="client-t1", span_id="client-s1")
        orphan = collector.start_span("rpc.serve", parent=remote,
                                      kind="server")
        orphan.end()
        text = render_trace(collector.spans())
        assert "(parent span not in this export:)" in text
        assert "rpc.serve" in text
        # The summary still reports the trace, with unknown root facts.
        (summary,) = summarize(collector.spans())
        assert summary.trace_id == "client-t1"
        assert summary.root_name == "?"
        assert summary.span_count == 1

    def test_multi_origin_merge_via_load_jsonl(self, tmp_path):
        # Client and server each export their own JSONL file; merging
        # the two reassembles one stitched trace with resolvable links.
        client = self._collector(origin="client")
        root = client.start_trace("suite.write", kind="client")
        rpc = client.start_span("rpc.stage", parent=root, kind="client")

        server = self._collector(origin="server")
        serve = server.start_span("rpc.serve", parent=rpc.context,
                                  kind="server")
        serve.end()
        rpc.end()
        root.end()

        client_path = tmp_path / "client.jsonl"
        server_path = tmp_path / "server.jsonl"
        client.export_jsonl(str(client_path))
        server.export_jsonl(str(server_path))

        merged = load_jsonl(str(client_path)) + load_jsonl(
            str(server_path))
        traces = group_traces(merged)
        assert set(traces) == {root.trace_id}
        members = traces[root.trace_id]
        assert len(members) == 3
        ids = {span.span_id for span in members}
        assert all(span.parent_id in ids for span in members
                   if span.parent_id is not None)
        text = render_trace(members)
        # Fully stitched: no orphan marker, server span nested under the
        # client RPC at depth 2.
        assert "(parent span not in this export:)" not in text
        assert "@server" in text and "@client" in text
        (summary,) = summarize(members)
        assert summary.root_name == "suite.write"
        assert summary.span_count == 3
