"""One node, two runtimes: the sim host and the live host share their
crash/restart semantics, and the sim testbed and the live daemon
assemble the same representative."""

import asyncio

import pytest

from repro.live import LiveKernel, LiveRuntime, LiveStorageServer
from repro.live.runtime import LiveHost
from repro.rpc.messages import Reply
from repro.sim import Network, Simulator
from repro.testbed import Testbed


class _SimRig:
    """A sim host ``h`` with a peer that records what ``h`` sends."""

    def __init__(self) -> None:
        self.sim = Simulator()
        network = Network(self.sim)
        self.host = network.add_host("h")
        self.peer = network.add_host("peer")
        self.sent = []
        self.peer.dispatch = self.sent.append

    def send(self, message) -> None:
        self.host.send("peer", message)
        self.sim.run()

    def deliver(self, message) -> None:
        self.peer.send("h", message)
        self.sim.run()

    def close(self) -> None:
        pass


class _LiveRig:
    """A live host ``h`` whose transport records what ``h`` sends."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.host = LiveHost(LiveKernel(loop=self.loop), "h")
        self.sent = []
        self.host.transport.send = \
            lambda destination, message: self.sent.append(message)

    def send(self, message) -> None:
        self.host.send("peer", message)

    def deliver(self, message) -> None:
        self.host.deliver(message)

    def close(self) -> None:
        self.loop.close()


@pytest.fixture(params=[_SimRig, _LiveRig], ids=["sim", "live"])
def rig(request):
    made = request.param()
    yield made
    made.close()


class TestHostSemantics:
    def test_listeners_fire_once_per_transition(self, rig):
        crashes, restarts = [], []
        rig.host.on_crash(lambda: crashes.append(rig.host.up))
        rig.host.on_restart(lambda: restarts.append(rig.host.up))
        rig.host.restart()  # already up: nothing to do
        rig.host.crash()
        rig.host.crash()
        rig.host.restart()
        rig.host.restart()
        assert crashes == [False]
        assert restarts == [True]

    def test_crashed_host_neither_sends_nor_delivers(self, rig):
        out, in_ = Reply.success(1, "out"), Reply.success(2, "in")
        received = []
        rig.host.dispatch = received.append
        rig.host.crash()
        rig.send(out)
        rig.deliver(in_)
        assert (rig.sent, received) == ([], [])
        rig.host.restart()
        rig.send(out)
        rig.deliver(in_)
        assert (rig.sent, received) == ([out], [in_])


def _leave_copy_behind(endpoint, server):
    """Create ``f`` at version 1 on ``server``, then stage (and abort)
    a write of version 3: the copy learns the suite is at 2."""
    yield endpoint.call(server, "txn.stage_write", txn="probe#1", name="f",
                        data=b"v1", version=1, create=True, one_phase=True)
    yield endpoint.call(server, "txn.stage_write", txn="probe#2", name="f",
                        data=b"v3", version=3)
    yield endpoint.call(server, "txn.abort", txn="probe#2")


LAG = "rep.version_lag[file=f,server=s1]"


class TestCompositionParity:
    def test_sim_node_and_live_daemon_match(self):
        bed = Testbed(servers=["s1"])
        sim_node = bed.servers["s1"]
        bed.run(_leave_copy_behind(bed.clients["client"].endpoint, "s1"))

        async def live():
            server = LiveStorageServer("s1", obs=False)
            client = LiveRuntime(obs=False)
            try:
                host, port = await server.start(obs_port=None)
                client.register_server("s1", host, port)
                await client.run(_leave_copy_behind(client.endpoint, "s1"))
            finally:
                await client.close()
                await server.close()
            return server

        daemon = asyncio.run(live())
        assert set(sim_node.endpoint._handlers) \
            == set(daemon.endpoint._handlers)
        for endpoint in (sim_node.endpoint, daemon.endpoint):
            assert endpoint.metrics.gauge_value(LAG, default=-1.0) == 1.0
