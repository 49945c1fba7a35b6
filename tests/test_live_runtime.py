"""Live runtime: kernel semantics, cluster operations, persistence."""

import asyncio

import pytest

from repro.core import make_configuration
from repro.errors import RpcTimeout, StorageError
from repro.live import FilePageStore, LiveKernel, LoopbackCluster
from repro.live.server import make_stable_store
from repro.live.transport import TransportNode
from repro.rpc.messages import Request


def make_config(name="live", servers=("s1", "s2", "s3"), r=2, w=2):
    return make_configuration(
        name, [(server, 1) for server in servers], r, w,
        latency_hints={server: 10.0 * (index + 1)
                       for index, server in enumerate(servers)})


class TestLiveKernel:
    def test_now_tracks_wall_clock_in_ms(self):
        async def scenario():
            kernel = LiveKernel()
            before = kernel.now
            await asyncio.sleep(0.05)
            return kernel.now - before

        elapsed = asyncio.run(scenario())
        assert 40.0 <= elapsed < 5_000.0

    def test_schedule_maps_to_event_loop(self):
        async def scenario():
            kernel = LiveKernel()
            fired = []
            done = asyncio.get_event_loop().create_future()
            kernel.schedule(0.0, fired.append, "now")
            kernel.schedule(20.0, lambda: (fired.append("later"),
                                           done.set_result(None)))
            await done
            return fired

        assert asyncio.run(scenario()) == ["now", "later"]

    def test_sim_pumping_api_forbidden(self):
        async def scenario():
            kernel = LiveKernel()
            for method in (kernel.step, kernel.run):
                with pytest.raises(RuntimeError):
                    method()
            with pytest.raises(RuntimeError):
                kernel.run_until(None)

        asyncio.run(scenario())

    def test_processes_run_on_the_loop(self):
        async def scenario():
            kernel = LiveKernel()

            def process():
                yield kernel.timeout(10.0)
                return "done"

            return await kernel.wrap_awaitable(kernel.spawn(process()))

        assert asyncio.run(scenario()) == "done"


class TestLoopbackCluster:
    def test_quorum_read_write_over_tcp(self):
        async def scenario():
            async with LoopbackCluster(["s1", "s2", "s3"]) as cluster:
                suite = await cluster.install(make_config(), b"v1")
                read = await cluster.read(suite)
                assert (read.data, read.version) == (b"v1", 1)

                write = await cluster.write(suite, b"v2")
                assert write.version == 2
                assert len(write.quorum) == 2

                read = await cluster.read(suite)
                assert (read.data, read.version) == (b"v2", 2)

        asyncio.run(scenario())

    def test_read_and_write_survive_one_server_down(self):
        async def scenario():
            async with LoopbackCluster(["s1", "s2", "s3"]) as cluster:
                suite = await cluster.install(make_config(), b"v1")
                await cluster.stop_server("s1")

                read = await cluster.read(suite)
                assert (read.data, read.version) == (b"v1", 1)
                assert "rep-s1" not in read.quorum

                write = await cluster.write(suite, b"v2")
                assert sorted(write.quorum) == ["rep-s2", "rep-s3"]

        asyncio.run(scenario())

    def test_restarted_server_catches_up_via_refresh(self):
        async def scenario():
            async with LoopbackCluster(["s1", "s2", "s3"]) as cluster:
                config = make_config()
                suite = await cluster.install(config, b"v1")
                await cluster.stop_server("s1")
                write = await cluster.write(suite, b"v2")
                await cluster.restart_server("s1")

                cluster.client.refresher.schedule(suite, ["rep-s1"],
                                                 write.version)
                loop = asyncio.get_event_loop()
                deadline = loop.time() + 10.0
                fs = cluster.servers["s1"].server.fs
                while loop.time() < deadline:
                    if fs.stat(config.file_name).version == write.version:
                        return True
                    await asyncio.sleep(0.02)
                return False

        assert asyncio.run(scenario())

    def test_at_most_once_across_retransmission(self):
        # A duplicated request frame (same source + call id) must not
        # re-execute the handler: the live endpoint IS the sim endpoint,
        # so its dedup carries over to real sockets.
        async def scenario():
            async with LoopbackCluster(["s1", "s2", "s3"]) as cluster:
                server = cluster.servers["s1"]
                replies = []
                rogue = TransportNode("rogue", replies.append)
                host, port = server.address
                rogue.register_peer("s1", host, port)

                request = Request(call_id=900, source="rogue",
                                  method="txn.abort",
                                  args={"txn": "rogue#1"})

                async def await_replies(count):
                    deadline = asyncio.get_event_loop().time() + 5.0
                    while (len(replies) < count
                           and asyncio.get_event_loop().time() < deadline):
                        await asyncio.sleep(0.01)

                rogue.send("s1", request)
                await await_replies(1)
                rogue.send("s1", request)  # retransmission, same call id
                await await_replies(2)
                await rogue.close()

                assert len(replies) == 2  # second answered from cache
                assert replies[0].call_id == replies[1].call_id == 900
                assert server.endpoint.duplicates_suppressed >= 1
                served = server.endpoint.requests_served
                return served

        # Exactly one execution for the two deliveries.
        assert asyncio.run(scenario()) == 1

    def test_client_call_times_out_on_stopped_server(self):
        async def scenario():
            async with LoopbackCluster(["s1", "s2", "s3"]) as cluster:
                await cluster.stop_server("s1")
                event = cluster.client.endpoint.call(
                    "s1", "txn.stat", timeout=100.0, name="f",
                    mode="shared")
                with pytest.raises(RpcTimeout):
                    await cluster.client.kernel.wrap_awaitable(event)
                assert cluster.client.endpoint._pending == {}

        asyncio.run(scenario())


class TestPersistence:
    def test_file_page_store_reloads(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        store = FilePageStore(path, num_pages=8, page_size=128)
        store.write(0, b"alpha")
        store.write(5, b"\x00\xff" * 30)
        store.close()

        reloaded = FilePageStore(path, num_pages=8, page_size=128)
        assert reloaded.read(0) == b"alpha"
        assert reloaded.read(5) == b"\x00\xff" * 30
        assert reloaded.read(3) == b""  # never written stays blank
        reloaded.close()

    def test_file_page_store_write_after_close_refused(self, tmp_path):
        store = FilePageStore(str(tmp_path / "pages.bin"), num_pages=8,
                              page_size=128)
        store.write(1, b"kept")
        store.close()
        with pytest.raises(StorageError, match="closed"):
            store.write(1, b"lost")
        assert store.read(1) == b"kept"

    def test_file_page_store_fsync_writes_through(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        store = FilePageStore(path, num_pages=8, page_size=128, fsync=True)
        store.write(7, b"synced")
        # No close(): the bytes must already be in the file.
        reloaded = FilePageStore(path, num_pages=8, page_size=128)
        assert reloaded.read(7) == b"synced"
        reloaded.close()
        store.close()

    def test_make_stable_store_reports_freshness(self, tmp_path):
        directory = str(tmp_path / "rep")
        stable, fresh = make_stable_store(directory, num_pages=8,
                                          page_size=128)
        assert fresh
        stable.write(0, b"payload")
        for careful in (stable.primary, stable.shadow):
            careful.pages.close()

        stable2, fresh2 = make_stable_store(directory, num_pages=8,
                                            page_size=128)
        assert not fresh2
        assert stable2.read(0) == b"payload"
        for careful in (stable2.primary, stable2.shadow):
            careful.pages.close()

    def test_cluster_state_survives_restarting_the_daemons(self, tmp_path):
        config = make_config("durable")
        data_root = str(tmp_path)

        async def first_life():
            async with LoopbackCluster(["s1", "s2", "s3"],
                                       data_root=data_root,
                                       num_pages=256,
                                       page_size=256) as cluster:
                suite = await cluster.install(config, b"v1")
                write = await cluster.write(suite, b"durable bytes")
                return write.version

        async def second_life():
            # Fresh daemons over the same directories: they mount the
            # existing stable storage instead of formatting.
            async with LoopbackCluster(["s1", "s2", "s3"],
                                       data_root=data_root,
                                       num_pages=256,
                                       page_size=256) as cluster:
                suite = cluster.suite(config)
                read = await cluster.read(suite)
                return read.data, read.version

        version = asyncio.run(first_life())
        data, read_version = asyncio.run(second_life())
        assert data == b"durable bytes"
        assert read_version == version

    def test_close_with_writes_in_flight(self, tmp_path):
        """Closing under running prepare/commit handlers must kill them
        with the host, not let them write to closed page files."""
        config = make_config("closing")
        options = dict(data_root=str(tmp_path), num_pages=256,
                       page_size=256)

        async def first_life():
            cluster = LoopbackCluster(["s1", "s2", "s3"], **options)
            await cluster.start()
            suite = await cluster.install(config, b"acknowledged")
            acked = (await cluster.read(suite)).version
            # Hold every disk, so each prepare parks with its record
            # still unwritten, and close the cluster under them.
            disks = [server.server.disk
                     for server in cluster.servers.values()]
            for disk in disks:
                disk.acquire()
            writes = [asyncio.ensure_future(
                cluster.write(suite, b"in flight %d" % index))
                for index in range(4)]
            while not any(disk.queue_length for disk in disks):
                await asyncio.sleep(0.001)
            await cluster.close()
            for disk in disks:
                disk.release()  # whatever was parked would resume now
            await asyncio.sleep(0.05)
            for write in writes:
                write.cancel()
            await asyncio.gather(*writes, return_exceptions=True)
            kernels = [cluster.client.kernel] + [
                server.kernel for server in cluster.servers.values()]
            return acked, [failure for kernel in kernels
                           for failure in kernel.orphan_failures]

        async def second_life():
            async with LoopbackCluster(["s1", "s2", "s3"],
                                       **options) as cluster:
                # Whatever was prepared when the plug was pulled is
                # in-doubt with no coordinator left: an operator's abort.
                endpoint = cluster.client.endpoint

                def resolve():
                    for name, server in cluster.servers.items():
                        for txn_id in server.participant.in_doubt():
                            yield endpoint.call(name, "txn.abort",
                                                timeout=1_000.0,
                                                txn=str(txn_id))

                await cluster.run(resolve())
                read = await cluster.read(cluster.suite(config))
                return read.data, read.version

        acked, orphans = asyncio.run(first_life())
        assert orphans == []
        data, version = asyncio.run(second_life())
        assert version >= acked
        assert data == b"acknowledged" or data.startswith(b"in flight")

    def test_live_demo_cli_runs(self, capsys):
        from repro.cli import main

        assert main(["live-demo"]) == 0
        out = capsys.readouterr().out
        assert "read b'hello, 1979 (live)' at version 1" in out
        assert "with s1 stopped" in out
        assert "versions: [3, 3, 3]" in out
