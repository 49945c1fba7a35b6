"""The stack under lossy and duplicating networks.

Datagram networks drop and duplicate packets.  The RPC layer's
at-most-once execution (duplicate suppression + cached replies) and the
transaction layer's retries must together keep the suite protocol
correct — these tests run real workloads over misbehaving networks and
check the same invariants as the clean-network tests.  The faults come
from a :class:`~repro.chaos.ChaosPolicy` on the network, the simulator's
one fault injector.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.helpers import triple_config
from repro.chaos import ChaosPolicy
from repro.sim import Network, RandomStreams, Simulator
from repro.rpc import Reply, RpcEndpoint
from repro.testbed import Testbed


class TestDuplicateDelivery:
    def test_network_duplicates_messages(self):
        sim = Simulator()
        network = Network(sim, RandomStreams(5), default_latency=1.0)
        network.chaos = ChaosPolicy(seed=5, duplicate_probability=0.5)
        a = network.add_host("a")
        network.add_host("b")
        for _ in range(100):
            a.send("b", Reply.success(0, "m"))
        sim.run()
        assert 20 < network.messages_duplicated < 80
        assert network.messages_delivered == \
            100 + network.messages_duplicated

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            ChaosPolicy(duplicate_probability=1.0)

    def test_rpc_suppresses_duplicate_requests(self):
        sim = Simulator()
        network = Network(sim, RandomStreams(6), default_latency=1.0)
        network.chaos = ChaosPolicy(seed=6, duplicate_probability=0.9)
        client = RpcEndpoint(sim, network.add_host("client"))
        server = RpcEndpoint(sim, network.add_host("server"))
        executions = []

        def count(tag):
            executions.append(tag)
            return tag

        server.register("count", count)

        def flow():
            for i in range(20):
                result = yield client.call("server", "count", tag=i)
                assert result == i

        sim.run_process(flow())
        sim.run()
        # Every call executed exactly once despite heavy duplication.
        assert executions == list(range(20))
        assert server.duplicates_suppressed > 0

    def test_cached_reply_resent_for_late_duplicate(self):
        sim = Simulator()
        network = Network(sim, RandomStreams(7), default_latency=1.0)
        client = RpcEndpoint(sim, network.add_host("client"))
        server = RpcEndpoint(sim, network.add_host("server"))
        calls = []
        server.register("once", lambda: calls.append(1) or "done")

        def flow():
            yield client.call("server", "once")
            # Manually replay the identical request (a late duplicate).
            from repro.rpc import Request
            client.host.send("server", Request(call_id=0, source="client",
                                               method="once", args={}))
            yield sim.timeout(10.0)

        sim.run_process(flow())
        sim.run()
        assert len(calls) == 1
        assert server.duplicates_suppressed == 1


class TestSuiteOverBadNetworks:
    def make_bed(self, loss=0.0, duplicates=0.0, seed=0):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=seed,
                      call_timeout=500.0)
        bed.network.chaos = ChaosPolicy(streams=bed.streams,
                                        drop_probability=loss,
                                        duplicate_probability=duplicates)
        return bed

    def test_workload_correct_under_duplication(self):
        bed = self.make_bed(duplicates=0.3, seed=61)
        suite = bed.install(triple_config(), b"w0")

        def scenario():
            for i in range(10):
                yield from suite.write(f"w{i + 1}".encode())
                result = yield from suite.read()
                assert result.data == f"w{i + 1}".encode()
            return result.version

        assert bed.run(scenario()) == 11
        bed.settle(30_000.0)
        versions = {node.server.fs.stat("suite:db").version
                    for node in bed.servers.values()}
        assert versions == {11}

    def test_workload_correct_under_loss(self):
        bed = self.make_bed(loss=0.05, seed=62)
        suite = bed.install(triple_config(), b"w0")
        suite.max_attempts = 8
        suite.retry_backoff = 100.0
        suite.inquiry_timeout = 300.0

        def scenario():
            for i in range(8):
                yield from suite.write(f"w{i + 1}".encode())
                result = yield from suite.read()
                assert result.data == f"w{i + 1}".encode()
            return result.version

        assert bed.run(scenario()) == 9

    @given(st.floats(min_value=0.0, max_value=0.08),
           st.floats(min_value=0.0, max_value=0.4),
           st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_hold_for_random_fault_rates(self, loss,
                                                    duplicates, seed):
        bed = self.make_bed(loss=loss, duplicates=duplicates, seed=seed)
        suite = bed.install(triple_config(), b"base")
        suite.max_attempts = 10
        suite.retry_backoff = 150.0
        suite.inquiry_timeout = 300.0

        def scenario():
            versions = []
            for i in range(5):
                result = yield from suite.write(f"p{i}".encode())
                versions.append(result.version)
            read = yield from suite.read()
            return versions, read

        versions, read = bed.run(scenario())
        # Versions strictly increase; the read sees the last write.
        assert versions == sorted(set(versions))
        assert read.version == versions[-1]
        assert read.data == b"p4"
