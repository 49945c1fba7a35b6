"""One-call cluster deployments, simulated and live, plus server join."""

import asyncio

import pytest

from repro.baselines import MajorityConsensusClient
from repro.chaos import HealthTracker
from repro.cluster import ClusterSpec, LiveCluster, SimCluster
from repro.core import CachingSuiteClient, make_configuration
from repro.obs.flight import FlightRecorder, load_flight_journal


class TestClusterSpec:
    def test_derived_names(self):
        spec = ClusterSpec(servers=3, suites=4, directory_shards=2)
        assert spec.server_names == ["n1", "n2", "n3"]
        assert spec.suite_names == ["app-000", "app-001", "app-002",
                                    "app-003"]
        assert spec.initial_data("app-000") == b"app-000:v1"

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(servers=2, replication=3)
        with pytest.raises(ValueError):
            ClusterSpec(directory_shards=0)
        with pytest.raises(ValueError):
            ClusterSpec(suites=0)


@pytest.fixture
def cluster():
    spec = ClusterSpec(servers=4, suites=16, directory_shards=2, seed=3)
    return SimCluster(spec).start()


class TestSimCluster:
    def test_bootstrap_binds_everything(self, cluster):
        names = cluster.bed.run(cluster.namespace.list_suites())
        assert names == cluster.spec.suite_names
        sizes = cluster.bed.run(cluster.namespace.shard_sizes())
        assert len(sizes) == 2
        assert sum(sizes.values()) == 16

    def test_warm_handles_serve_reads_and_writes(self, cluster):
        handle = cluster.handles["app-005"]
        assert cluster.bed.run(handle.read()).data == b"app-005:v1"
        cluster.bed.run(handle.write(b"app-005:v2"))
        assert cluster.bed.run(handle.read()).data == b"app-005:v2"

    def test_cold_open_through_directory(self, cluster):
        handle = cluster.open("app-011")
        assert handle is not cluster.handles["app-011"]
        assert cluster.bed.run(handle.read()).data == b"app-011:v1"

    def test_placement_table_covers_fleet(self, cluster):
        table = cluster.placement_table()
        assert [server for server, _count in table] == \
            ["n1", "n2", "n3", "n4"]
        assert sum(count for _server, count in table) == 16 * 3

    def test_suites_live_where_the_ring_says(self, cluster):
        for name, handle in cluster.handles.items():
            assert [rep.server for rep in
                    handle.config.representatives] == \
                cluster.ring.place(name)


class TestServerJoin:
    def test_join_rebalances_moved_suites(self, cluster):
        before = dict(cluster.state.placement)
        plan = cluster.join_server("n5")
        assert 0 < plan.moved_suites < 16
        for name, (was, now) in plan.moves.items():
            assert "n5" in now and "n5" not in was
        # Untouched suites keep their placement and configuration.
        for name in cluster.spec.suite_names:
            if name not in plan.moves:
                assert cluster.state.placement[name] == before[name]
                assert cluster.handles[name].config.config_version == 1

    def test_moved_suites_keep_serving(self, cluster):
        plan = cluster.join_server("n5")
        moved = sorted(plan.moves)[0]
        handle = cluster.handles[moved]
        assert handle.config.config_version == 2
        assert "n5" in {rep.server
                        for rep in handle.config.representatives}
        assert cluster.bed.run(handle.read()).data == f"{moved}:v1".encode()
        cluster.bed.run(handle.write(b"post-join"))
        assert cluster.bed.run(handle.read()).data == b"post-join"

    def test_cold_open_after_join_sees_new_configuration(self, cluster):
        plan = cluster.join_server("n5")
        moved = sorted(plan.moves)[0]
        # The directory was re-bound: a brand-new client bootstraps
        # straight to the installed configuration, no stamp repair.
        handle = cluster.open(moved)
        assert handle.config.config_version == 2

    def test_stale_warm_handle_adopts_via_stamp_check(self, cluster):
        # A client that opened its handle before the join keeps
        # working: the stamp check on first contact repairs it.
        # (app-004 is one of the suites this seed's join moves.)
        stale = cluster.open("app-004")  # pre-join private handle
        plan = cluster.join_server("n5")
        assert "app-004" in plan.moves
        assert stale.config.config_version == 1
        assert cluster.bed.run(stale.read()).data == b"app-004:v1"
        assert stale.config.config_version == 2


def wired_cluster(tmp_path):
    """A traced cluster whose client carries a flight recorder on its
    transaction manager and a health tracker on its endpoint, both
    attached before any handle exists."""
    spec = ClusterSpec(servers=4, suites=16, directory_shards=2, seed=3)
    cluster = SimCluster(spec, obs=True)
    bed = cluster.bed
    client = bed.clients["client"]
    client.manager.flight = FlightRecorder(
        str(tmp_path / "flight"), clock=lambda: bed.sim.now, fsync=False)
    client.endpoint.health = HealthTracker(clock=lambda: bed.sim.now,
                                           cooldown=10**9)
    return cluster.start()


class TestHandleWiring:
    """Every handle a client builds reads its planes from the client's
    transaction manager — a suite opened by name included."""

    def test_cold_open_journals_and_consults_breakers(self, tmp_path):
        cluster = wired_cluster(tmp_path)
        bed = cluster.bed
        recorder = bed.clients["client"].manager.flight
        health = bed.clients["client"].endpoint.health
        handle = cluster.open("app-011")
        vetoed = handle.config.representatives[0]
        for _ in range(health.failure_threshold):
            health.record_failure(vetoed.server)
        first_seq = recorder.seq
        bed.collector.ring.clear()
        assert bed.run(handle.read()).data == b"app-011:v1"
        recorder.close()

        records, _stats = load_flight_journal(recorder.directory)
        quorums = [record["data"] for record in records
                   if record["kind"] == "quorum"
                   and record["seq"] >= first_seq]
        assert [quorum["suite"] for quorum in quorums] == ["app-011"]
        assert vetoed.rep_id not in quorums[0]["observed"]
        (assemble,) = [span for span in bed.collector.spans()
                       if span.name == "quorum.assemble"]
        assert [event.attrs for event in assemble.events
                if event.name == "health.vetoed"] == \
            [{"reps": vetoed.rep_id}]

    def test_every_handle_shares_the_clients_planes(self, tmp_path):
        cluster = wired_cluster(tmp_path)
        bed = cluster.bed
        client = bed.clients["client"]
        config = make_configuration(
            "wired", [("n1", 1), ("n2", 1), ("n3", 1)], 2, 2)
        handles = {
            "suite": bed.suite(config),
            "install": bed.install(config, b"w"),
            "open_suite": bed.run(cluster.namespace.open_suite("app-011")),
            "caching": CachingSuiteClient(client.manager, config),
            "majority": MajorityConsensusClient.build(
                client.manager, "wired-majority", ["n1", "n2", "n3"]),
        }
        for kind, handle in handles.items():
            stream = bed.streams.stream(
                f"suite:{handle.config.suite_name}:client")
            assert handle.metrics is bed.metrics, kind
            assert handle.collector is bed.collector, kind
            assert handle.health is client.endpoint.health, kind
            assert handle.flight is client.manager.flight, kind
            assert handle._rng is stream, kind
        client.manager.flight.close()


def test_sim_cluster_deterministic_layout():
    spec = ClusterSpec(servers=5, suites=12, directory_shards=2, seed=8)
    one = SimCluster(spec).start()
    two = SimCluster(spec).start()
    assert one.state.placement == two.state.placement
    assert one.ring.checksum(spec.suite_names) == \
        two.ring.checksum(spec.suite_names)


class TestLiveCluster:
    def test_obs_manifest_and_fleet_view(self, tmp_path):
        """The live fleet's discovery file and merged scrape: every
        daemon's sidecar is in the manifest and answers the scrape."""
        from repro.obs.aggregate import load_obs_manifest

        spec = ClusterSpec(servers=3, suites=2, directory_shards=1,
                           seed=4)
        manifest = str(tmp_path / "fleet.json")

        async def scenario():
            async with LiveCluster(spec) as cluster:
                handle = cluster.handles["app-001"]
                await cluster.loopback.run(handle.read())
                addresses = cluster.write_obs_manifest(manifest)
                view = await cluster.fleet_view()
                return addresses, view

        addresses, view = asyncio.run(scenario())
        assert sorted(addresses) == spec.server_names
        assert load_obs_manifest(manifest) == addresses
        assert view.errors == {}
        assert sorted(view.sources) == spec.server_names
        assert all(view.sources[name] for name in spec.server_names)

    def test_bootstrap_serve_and_join(self, tmp_path):
        spec = ClusterSpec(servers=3, suites=6, directory_shards=2,
                           seed=2)

        async def scenario():
            async with LiveCluster(
                    spec, data_root=str(tmp_path), obs=False) as cluster:
                assert len(cluster.loopback.servers) == 3
                names = await cluster.loopback.run(
                    cluster.namespace.list_suites())
                assert names == spec.suite_names

                handle = cluster.handles["app-002"]
                result = await cluster.loopback.run(handle.read())
                assert result.data == b"app-002:v1"
                await cluster.loopback.run(handle.write(b"live-write"))

                plan = await cluster.join_server("n4")
                assert len(cluster.loopback.servers) == 4
                assert plan.moved_suites > 0
                moved = sorted(plan.moves)[0]
                moved_handle = cluster.handles[moved]
                assert moved_handle.config.config_version == 2
                result = await cluster.loopback.run(moved_handle.read())
                assert result.version >= 1

                cold = await cluster.open(moved)
                assert cold.config.config_version == 2

        asyncio.run(scenario())
