"""The telemetry-plane CLI: multi-target metrics, top, and doctor."""

import asyncio
import json
import threading

import pytest

from repro.chaos.policy import ChaosPolicy
from repro.cli import main
from repro.core import make_configuration
from repro.obs.aggregate import write_obs_manifest
from repro.obs.collector import dump_jsonl
from repro.sim import RandomStreams
from repro.testbed import Testbed


class TestDoctorScenario:
    def test_slow_server_detected_in_both_planes(self, capsys):
        rc = main(["doctor", "--delay-server", "n2",
                   "--expect-slow", "n2", "--ops", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "top quorum blockers" in out
        assert "critical path (trace plane):" in out
        assert "critical path (metrics plane):" in out
        assert "SLOs:" in out
        assert "quorum wait concentrates on rep-n2" in out
        assert "slow representative n2 DETECTED" in out

    def test_deterministic_across_reruns(self, capsys):
        main(["doctor", "--delay-server", "n3", "--ops", "40"])
        first = capsys.readouterr().out
        main(["doctor", "--delay-server", "n3", "--ops", "40"])
        second = capsys.readouterr().out
        assert first == second
        assert "rep-n3" in first

    def test_wrong_expectation_exits_2(self, capsys):
        rc = main(["doctor", "--delay-server", "n2",
                   "--expect-slow", "n4", "--ops", "40"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "slow representative n4 MISSED" in out

    def test_dead_server_detected_via_breakers(self, capsys):
        rc = main(["doctor", "--kill-server", "n3",
                   "--expect-dead", "n3", "--ops", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "circuit breaker tripped for n3" in out
        assert "dead representative n3 DETECTED" in out
        assert "operations failed" in out

    def test_healthy_fleet_has_no_findings(self, capsys):
        rc = main(["doctor", "--ops", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "findings: none" in out

    def test_autopilot_flags_the_slow_server(self, capsys):
        rc = main(["doctor", "--delay-server", "n2", "--autopilot",
                   "--expect-slow", "n2", "--ops", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "autopilot flagged slow server n2 DETECTED" in out

    def test_autopilot_wrong_expectation_exits_2(self, capsys):
        rc = main(["doctor", "--delay-server", "n2", "--autopilot",
                   "--expect-slow", "n4", "--ops", "60"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "autopilot flagged slow server n4 MISSED" in out

    def test_unknown_server_rejected(self, capsys):
        rc = main(["doctor", "--delay-server", "n9"])
        assert rc == 2
        assert "not in the fleet" in capsys.readouterr().err


def exported_trace(tmp_path, slow_server="s2"):
    """A JSONL span export from a slowed traced workload."""
    bed = Testbed(servers=["s1", "s2", "s3"], seed=5, obs=True)
    policy = ChaosPolicy(streams=RandomStreams(seed=5))
    policy.slow_host(slow_server, 30.0)
    bed.network.chaos = policy
    config = make_configuration(
        "cp", [("s1", 1), ("s2", 1), ("s3", 1)], 3, 3,
        latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0})
    suite = bed.install(config, b"cp:v1")
    for _index in range(5):
        bed.run(suite.read())
    path = tmp_path / "spans.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        dump_jsonl(bed.collector.spans(), handle)
    return str(path)


class TestDoctorOffline:
    def test_trace_analysis_names_the_blocker(self, tmp_path, capsys):
        trace = exported_trace(tmp_path)
        rc = main(["doctor", "--trace", trace,
                   "--expect-slow", "s2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rep-s2" in out
        assert "slow representative s2 DETECTED" in out

    def test_history_breakers_flag_dead_servers(self, tmp_path, capsys):
        history = tmp_path / "history.json"
        history.write_text(json.dumps({
            "verdict": "OK",
            "breakers": {
                "rep-2": {"state": "closed",
                          "consecutive_failures": 0, "opens": 4},
                "rep-1": {"state": "closed",
                          "consecutive_failures": 0, "opens": 0},
            }}))
        rc = main(["doctor", "--history", str(history),
                   "--expect-dead", "rep-2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict OK" in out
        assert "rep-2 (closed, 4 opens)" in out
        assert "dead representative rep-2 DETECTED" in out

        rc = main(["doctor", "--history", str(history),
                   "--expect-dead", "rep-1"])
        assert rc == 2
        assert "MISSED" in capsys.readouterr().out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        rc = main(["doctor", "--trace", str(tmp_path / "absent.jsonl")])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err


class TestTargetResolution:
    def test_no_targets_is_usage_error(self, capsys):
        assert main(["metrics"]) == 2
        assert "no targets" in capsys.readouterr().err
        assert main(["top"]) == 2
        assert "no targets" in capsys.readouterr().err

    def test_malformed_target_rejected(self, capsys):
        assert main(["metrics", "nonsense"]) == 2
        assert "expected HOST:PORT" in capsys.readouterr().err

    def test_missing_manifest_rejected(self, capsys):
        assert main(["metrics", "--cluster", "/no/such.json"]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_raw_needs_single_target(self, capsys):
        rc = main(["metrics", "--raw", "127.0.0.1:1", "127.0.0.1:2"])
        assert rc == 2
        assert "--raw needs a single target" in capsys.readouterr().err


class TestMergedRows:
    def test_histogram_buckets_print_in_bound_order(self, monkeypatch,
                                                    capsys):
        """Two sources, one histogram: the merged rows list ``le`` by
        bound, ``+Inf`` last — not by the label's text."""
        from repro.obs import aggregate
        from repro.obs.prom import parse_exposition, render_registry
        from repro.sim.metrics import MetricsRegistry

        view = aggregate.FleetView()
        for name, latency in (("s1", 3.0), ("s2", 40.0)):
            registry = MetricsRegistry()
            registry.histogram("rpc.server_latency").observe(latency)
            text = render_registry(registry)
            view.add_text(name, text)
        monkeypatch.setattr(aggregate, "scrape_fleet_sync",
                            lambda *args, **kwargs: view)
        assert main(["metrics", "127.0.0.1:1", "127.0.0.1:2"]) == 0
        out = capsys.readouterr().out
        bucket = "repro_rpc_server_latency_bucket"
        printed = [line.split()[1] for line in out.splitlines()
                   if line.split()[:1] == [bucket]]
        ladder = [f"le={labels['le']}"
                  for sample, labels, _ in parse_exposition(text)
                  if sample == bucket]
        assert printed == ladder
        assert printed[0] == "le=0.01" and printed[-1] == "le=+Inf"

    def test_a_bound_that_is_no_number_sorts_last(self, monkeypatch,
                                                  capsys):
        from repro.obs import aggregate

        view = aggregate.FleetView()
        view.add_text("s1", 'x_bucket{le="junk"} 1\n'
                            'x_bucket{le="+Inf"} 1\nx_bucket{le="2"} 1\n')
        view.add_text("s2", 'x_bucket{le="2"} 1\n')
        monkeypatch.setattr(aggregate, "scrape_fleet_sync",
                            lambda *args, **kwargs: view)
        assert main(["metrics", "127.0.0.1:1", "127.0.0.1:2"]) == 0
        printed = [line.split()[1] for line
                   in capsys.readouterr().out.splitlines()
                   if line.split()[:1] == ["x_bucket"]]
        assert printed == ["le=2", "le=+Inf", "le=junk"]


@pytest.fixture
def live_fleet(tmp_path):
    """Two live storage daemons with obs sidecars, run on a thread."""
    from repro.live import LiveStorageServer

    started = threading.Event()
    holder = {}

    def run():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop = asyncio.Event()
        holder["loop"], holder["stop"] = loop, stop

        async def serve():
            servers = []
            addresses = {}
            for name in ("s1", "s2"):
                server = LiveStorageServer(name, obs=True)
                await server.start("127.0.0.1", 0, obs_port=0)
                servers.append(server)
                addresses[name] = server.obs_address
            holder["addresses"] = addresses
            started.set()
            await stop.wait()
            for server in servers:
                await server.close()

        loop.run_until_complete(serve())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=15), "live fleet failed to boot"
    try:
        yield holder["addresses"]
    finally:
        holder["loop"].call_soon_threadsafe(holder["stop"].set)
        thread.join(timeout=15)


class TestLiveScrapes:
    def test_single_target_raw_back_compat(self, live_fleet, capsys):
        _host, port = live_fleet["s1"]
        rc = main(["metrics", "--port", str(port), "--raw"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro_obs_spans_buffered" in out

    def test_multi_target_merged_view(self, live_fleet, capsys):
        targets = [f"{host}:{port}"
                   for host, port in live_fleet.values()]
        rc = main(["metrics", *targets])
        out = capsys.readouterr().out
        assert rc == 0
        assert "merged value" in out
        assert "sources: " in out

    def test_cluster_manifest_discovery(self, live_fleet, tmp_path,
                                        capsys):
        manifest = str(tmp_path / "obs.json")
        write_obs_manifest(live_fleet, manifest)
        rc = main(["metrics", "--cluster", manifest,
                   "--filter", "obs"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sources: s1, s2" in out

    def test_top_one_iteration(self, live_fleet, tmp_path, capsys):
        manifest = str(tmp_path / "obs.json")
        write_obs_manifest(live_fleet, manifest)
        rc = main(["top", "--cluster", manifest, "--iterations", "1",
                   "--no-clear"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro top — refresh 1, 2/2 sources up" in out

    def test_unreachable_member_reported(self, live_fleet, capsys):
        targets = [f"{host}:{port}"
                   for host, port in live_fleet.values()]
        rc = main(["metrics", *targets, "127.0.0.1:9"])
        captured = capsys.readouterr()
        assert rc == 0                  # partial fleet still renders
        assert "cannot scrape 127.0.0.1:9" in captured.err
        assert "!! 127.0.0.1:9" in captured.out
