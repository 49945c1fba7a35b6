"""Gap-filling edge cases across the stack."""

import pytest

from tests.helpers import triple_config, watch_requests
from repro.core.suite import FileSuiteClient, install_suite
from repro.errors import QuorumUnavailableError, TransactionAborted
from repro.rpc import Reply, Request, RpcEndpoint
from repro.sim import Network, RandomStreams, Simulator
from repro.sim.network import estimate_size
from repro.testbed import Testbed


class TestEstimateSizeEdges:
    def test_none_and_bools(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 8

    def test_deep_nesting_capped(self):
        nested = "leaf"
        for _ in range(20):
            nested = [nested]
        assert estimate_size(nested) > 0  # no recursion error

    def test_request_includes_bulk_args(self):
        request = Request(call_id=1, source="c", method="m",
                          args={"data": b"x" * 500})
        assert estimate_size(request) >= 500

    def test_set_and_tuple(self):
        assert estimate_size(({1, 2}, (3, 4))) >= 8


class TestReplyCacheEviction:
    def test_completed_cache_bounded(self, sim, network):
        client = RpcEndpoint(sim, network.add_host("c"))
        server = RpcEndpoint(sim, network.add_host("s"))
        server._completed_capacity = 5
        server.register("ping", lambda: "pong")

        def flow():
            for _ in range(20):
                yield client.call("s", "ping")

        sim.run_process(flow())
        sim.run()
        assert len(server._completed) <= 5


    def test_releasing_calls_are_not_remembered(self):
        """A ``release=True`` call leaves nothing behind, so its reply
        — possibly the whole file — is not kept for duplicates."""
        bed = Testbed(servers=["s1"], seed=3)
        manager = bed.clients["client"].manager
        server = bed.servers["s1"].endpoint

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f",
                           data=b"x" * 4_000, version=1, create=True,
                           prepare=True)
            yield from txn.commit()
            server._completed.clear()
            for _ in range(2_000):
                stat = yield manager.begin().call(
                    "s1", "txn.stat", name="f", read_data=True,
                    release=True)
                assert len(stat["data"]) == 4_000

        bed.run(flow())
        assert len(server._completed) == 0
        assert not server._in_progress

    def test_duplicate_of_a_finished_releasing_call_runs_again_harmlessly(
            self):
        bed = Testbed(servers=["s1"], seed=3)
        manager = bed.clients["client"].manager
        node = bed.servers["s1"]
        bed.run(install_suite(manager, triple_config_on("s1"), b"v1"))
        requests = watch_requests(bed)

        def flow():
            txn = manager.begin()
            first = yield txn.call("s1", "txn.stat", name="suite:db",
                                   release=True)
            served = node.endpoint.requests_served
            # The datagram again, after its handler has finished.
            bed.network.send("client", *requests[0])
            yield bed.sim.timeout(50.0)
            return first, node.endpoint.requests_served - served

        first, reruns = bed.run(flow())
        assert first["version"] == 1 and reruns == 1
        assert not node.participant._active
        assert node.participant.locks.holders_of("suite:db") == {}

    def test_duplicate_of_a_staging_request_is_answered_from_the_cache(
            self):
        bed = Testbed(servers=["s1"], seed=3)
        manager = bed.clients["client"].manager
        node = bed.servers["s1"]
        requests = watch_requests(bed)

        def flow():
            txn = manager.begin()
            vote = yield txn.call("s1", "txn.stage_write", name="f",
                                  data=b"x", version=1, create=True,
                                  prepare=True)
            served = node.endpoint.requests_served
            writes = node.server.stable.primary.pages.writes
            bed.network.send("client", *requests[0])
            yield bed.sim.timeout(50.0)
            assert node.endpoint.requests_served == served
            assert node.server.stable.primary.pages.writes == writes
            assert node.endpoint.duplicates_suppressed == 1
            yield from txn.commit()
            return vote

        assert bed.run(flow()) == "prepared"
        assert node.server.fs.read_file_sync("f") == (b"x", 1)


def triple_config_on(server):
    from repro.core import make_configuration
    return make_configuration("db", [(server, 1)], 1, 1)


class TestSuiteEdges:
    def test_weak_inquiry_timeout_defaults_to_inquiry(self, bed):
        suite = bed.suite(triple_config(), inquiry_timeout=321.0)
        assert suite.weak_inquiry_timeout == 321.0

    def test_explicit_weak_inquiry_timeout(self, bed):
        suite = bed.suite(triple_config(), inquiry_timeout=321.0,
                          weak_inquiry_timeout=55.0)
        assert suite.weak_inquiry_timeout == 55.0

    def test_transact_retries_on_quorum_loss(self, bed):
        suite = bed.install(triple_config(), b"0")
        suite.retry_backoff = 300.0
        bed.crash("s1")
        bed.crash("s2")

        def heal():
            yield bed.sim.timeout(500.0)
            bed.restart("s1")

        bed.sim.spawn(heal(), name="healer")

        def increment(txn):
            current = yield from suite.read_in(txn, for_update=True)
            value = int(current.data) + 1
            yield from suite.write_in(txn, str(value).encode())
            return value

        assert bed.run(suite.transact(increment)) == 1

    def test_transact_propagates_final_failure(self, bed):
        suite = bed.install(triple_config(), b"0")
        suite.max_attempts = 1
        suite.inquiry_timeout = 60.0
        bed.crash("s1")
        bed.crash("s2")

        def nop(txn):
            yield from suite.read_in(txn)
            return None

        with pytest.raises(QuorumUnavailableError):
            bed.run(suite.transact(nop))

    def test_current_version_with_weak_reps_excluded(self, bed):
        config = triple_config(votes=(1, 1, 0), r=1, w=2)
        suite = bed.install(config, b"x")
        bed.run(suite.write(b"y"))
        assert bed.run(suite.current_version()) == 2

    def test_install_empty_data(self, bed):
        suite = bed.install(triple_config())
        result = bed.run(suite.read())
        assert result.data == b""
        assert result.version == 1


class TestRefreshEdges:
    def test_abandoned_refresh_counted(self):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=95,
                      call_timeout=150.0)
        suite = bed.install(triple_config(), b"x")
        suite.refresher.max_attempts = 2
        suite.refresher.retry_backoff = 50.0
        suite.data_timeout = 300.0
        # Make the refresh target permanently unreachable: the quorum
        # write succeeds but s3 never comes back.
        bed.run(suite.write(b"y"))
        bed.crash("s3")
        bed.settle(30_000.0)
        # Either the refresh landed before the crash or was abandoned;
        # both are accounted for, nothing is stuck in-flight.
        metrics = bed.metrics
        landed = metrics.counter("refresh.completed").value
        abandoned = metrics.counter("refresh.abandoned").value
        assert landed + abandoned >= 1
        assert suite.refresher._in_flight == set()

    def test_refresh_of_reconfigured_away_rep_is_noop(self):
        from repro.core.reconfig import change_configuration

        bed = Testbed(servers=["s1", "s2", "s3"], seed=96)
        suite = bed.install(triple_config(), b"x")
        # Remove s3 while a refresh for it is queued with a delay.
        suite.refresher.delay = 400.0
        bed.run(suite.write(b"y"))     # schedules refresh for rep-3
        two_member = triple_config().evolve(
            representatives=triple_config().representatives[:2],
            read_quorum=1, write_quorum=2)
        bed.run(change_configuration(suite, two_member))
        bed.settle(30_000.0)           # the delayed refresh fires now
        # No crash, no stuck state; the removed rep's file is gone.
        assert not bed.servers["s3"].server.fs.exists("suite:db")


class TestSimulatorEdges:
    def test_run_max_steps_limits_progress(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_steps=2)
        assert fired == [0, 1]

    def test_step_on_empty_queue(self, sim):
        assert sim.step() is False

    def test_timeout_value_none_by_default(self, sim):
        timeout = sim.timeout(1.0)
        sim.run()
        assert timeout.value is None
