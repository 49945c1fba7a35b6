"""Sim/live parity: one protocol implementation, two schedulers.

The same scenario — the paper's example 2 suite, one quorum read, one
quorum write, and one stale-representative read-repair — runs on the
discrete-event :class:`Testbed` and on the loopback live cluster, and
must produce identical version numbers, quorum memberships, data
routing and per-server message counts.

The scenario is constructed so every gather is *forced*: each inquiry's
threshold can only be met by one exact set of representatives (a server
holding the balance of votes is stopped), so reply arrival order — the
one thing real sockets cannot make deterministic — never influences
which quorum is chosen:

* read1 with server-1 stopped — r=2 needs rep-2 AND rep-3;
* the write with server-3 stopped — w=3 needs rep-1 AND rep-2,
  leaving rep-3 stale (refresh disabled so it stays stale);
* read2 with server-1 stopped — quorum rep-2+rep-3 observes the stale
  rep-3, and the re-enabled refresher repairs it from the read.

Message counts are compared on the two surviving servers; the stopped
server also absorbs background abort retries whose timing is inherently
wall-clock-dependent.
"""

import asyncio

from repro.core.examples import example_configuration
from repro.live import LoopbackCluster
from repro.testbed import Testbed

#: Example 2: server-1 holds 2 of 4 votes, r = 2, w = 3.
SERVERS = ("server-1", "server-2", "server-3")

#: The servers whose final state and message counts are compared.
SURVIVORS = ("server-2", "server-3")


def observables(read1, write, read2, fs_version, requests_served):
    return {
        "read1": (read1.version, read1.served_by,
                  sorted(read1.quorum), sorted(read1.stale)),
        "write": (write.version, sorted(write.quorum),
                  sorted(write.stale)),
        "read2": (read2.version, read2.served_by,
                  sorted(read2.quorum), sorted(read2.stale)),
        "final_versions": {server: fs_version(server)
                           for server in SURVIVORS},
        "requests_served": {server: requests_served(server)
                            for server in SURVIVORS},
    }


def run_on_testbed():
    bed = Testbed(servers=list(SERVERS))
    config = example_configuration(2)
    suite = bed.install(config, b"version one")

    bed.crash("server-1")
    read1 = bed.run(suite.read())
    bed.restart("server-1")
    # Let read1's fire-and-forget lock releases land before the next
    # crash: the release prepare to server-3 is in flight when read()
    # returns, and crashing into it would make its fate a race (sim
    # drops the in-flight message; live sockets deliver it first).
    bed.settle(grace=10.0)

    suite.refresher.enabled = False
    bed.crash("server-3")
    write = bed.run(suite.write(b"version two"))
    bed.restart("server-3")

    suite.refresher.enabled = True
    bed.crash("server-1")
    read2 = bed.run(suite.read())
    # Run background work (refresh, decision retries) to quiescence.
    bed.settle(grace=20_000.0)

    def fs_version(server):
        return bed.servers[server].server.fs.stat(
            config.file_name).version

    assert fs_version("server-3") == write.version  # repair landed
    return observables(
        read1, write, read2, fs_version,
        lambda server: bed.servers[server].endpoint.requests_served)


def run_on_live_cluster():
    async def scenario():
        async with LoopbackCluster(list(SERVERS)) as cluster:
            config = example_configuration(2)
            suite = await cluster.install(config, b"version one")

            await cluster.stop_server("server-1")
            read1 = await cluster.read(suite)
            await cluster.restart_server("server-1")
            # Mirror the sim's post-read grace (see run_on_testbed).
            await asyncio.sleep(0.05)

            suite.refresher.enabled = False
            await cluster.stop_server("server-3")
            write = await cluster.write(suite, b"version two")
            await cluster.restart_server("server-3")

            suite.refresher.enabled = True
            await cluster.stop_server("server-1")
            read2 = await cluster.read(suite)

            def fs_version(server):
                return cluster.servers[server].server.fs.stat(
                    config.file_name).version

            loop = asyncio.get_event_loop()
            deadline = loop.time() + 15.0
            while loop.time() < deadline:
                if fs_version("server-3") == write.version:
                    break
                await asyncio.sleep(0.02)
            assert fs_version("server-3") == write.version
            # Let trailing background traffic land before counting
            # messages — notably the write's stage to server-3, which
            # was stopped: its retransmission (after the 5 s data
            # timeout) lands on the restarted server, votes late and is
            # aborted.  Wait until the client has no call out and the
            # message counts are quiescent, as Testbed.settle does in
            # sim.
            def counts():
                return tuple(cluster.servers[server
                                             ].endpoint.requests_served
                             for server in SURVIVORS)

            pending = suite.manager.endpoint._pending
            stable_since = loop.time()
            last = counts()
            deadline = loop.time() + 15.0
            while loop.time() < deadline:
                await asyncio.sleep(0.25)
                current = counts()
                if current != last or pending:
                    last = current
                    stable_since = loop.time()
                elif loop.time() - stable_since >= 1.0:
                    break

            return observables(
                read1, write, read2, fs_version,
                lambda server: cluster.servers[
                    server].endpoint.requests_served)

    return asyncio.run(scenario())


class TestSimLiveParity:
    def test_same_scenario_same_observables(self):
        sim_result = run_on_testbed()
        live_result = run_on_live_cluster()
        assert sim_result == live_result

    def test_scenario_shape(self):
        # The forced quorums themselves, pinned so a regression in
        # either backend cannot silently agree on wrong behaviour.
        result = run_on_testbed()
        assert result["read1"] == (1, "rep-2", ["rep-2", "rep-3"], [])
        assert result["write"] == (2, ["rep-1", "rep-2"], ["rep-3"])
        assert result["read2"] == (2, "rep-2", ["rep-2", "rep-3"],
                                   ["rep-3"])
        assert result["final_versions"] == {"server-2": 2,
                                            "server-3": 2}
