"""At-most-once RPC with retransmission, and late-message hygiene.

These are the transport-level properties the transaction layer depends
on over an unreliable datagram network:

* retransmissions reuse the call id, so the server never re-executes;
* a retransmitted request that arrives after its transaction finished
  is refused by the participant's tombstone, so it cannot resurrect
  scratch state or strand locks;
* the post-decision messages of a transaction (read-only releases,
  commit stragglers, aborts) are transmitted synchronously with the
  decision, then retried in the background.
"""

import pytest

from tests.helpers import triple_config
from repro.chaos import ChaosPolicy
from repro.errors import RpcTimeout, TransactionAborted
from repro.rpc import Request, RpcEndpoint
from repro.sim import Network, RandomStreams, Simulator
from repro.testbed import Testbed


def make_pair(seed=9):
    """Client and server endpoints on a network whose chaos policy can
    cut the link between them (no faults until a test partitions)."""
    sim = Simulator()
    network = Network(sim, RandomStreams(seed), default_latency=1.0)
    network.chaos = ChaosPolicy()
    client = RpcEndpoint(sim, network.add_host("client"))
    server = RpcEndpoint(sim, network.add_host("server"))
    return sim, network, client, server


class TestRetransmission:
    def test_lost_request_recovered_by_retransmit(self):
        sim, network, client, server = make_pair()
        executions = []
        server.register("op", lambda: executions.append(1) or "done")
        # Force-drop the first transmission only.
        network.chaos.partition([["client"], ["server"]])

        def flow():
            event = client.call("server", "op", timeout=50.0, attempts=3)
            yield sim.timeout(10.0)
            network.chaos.heal()  # link heals
            result = yield event
            return result

        assert sim.run_process(flow()) == "done"
        sim.run()
        assert executions == [1]
        assert client.retransmissions >= 1

    def test_retransmit_does_not_reexecute(self):
        """Slow server + impatient client: the retransmission arrives
        while the original is still executing and must be suppressed."""
        sim, _network, client, server = make_pair()
        executions = []

        def slow():
            executions.append(sim.now)
            yield sim.timeout(80.0)
            return "slow-done"

        server.register("op", slow)

        def flow():
            result = yield client.call("server", "op", timeout=30.0,
                                       attempts=5)
            return result

        assert sim.run_process(flow()) == "slow-done"
        sim.run()
        assert len(executions) == 1
        assert server.duplicates_suppressed >= 1

    def test_all_attempts_lost_raises(self):
        sim, network, client, server = make_pair()
        server.register("op", lambda: "never")
        network.chaos.partition([["client"], ["server"]])

        def flow():
            try:
                yield client.call("server", "op", timeout=20.0,
                                  attempts=3)
            except RpcTimeout:
                return sim.now

        # 3 transmissions, 20 each.
        assert sim.run_process(flow()) == 60.0

    def test_attempts_validated(self):
        _sim, _network, client, _server = make_pair()
        with pytest.raises(ValueError):
            client.call("server", "op", timeout=10.0, attempts=0)


class TestTombstones:
    def test_late_stage_cannot_resurrect_aborted_txn(self, bed):
        """Replay a stage_write after its transaction aborted: the
        participant must refuse, leaving no scratch state or locks."""
        manager = bed.clients["client"].manager
        participant = bed.servers["s1"].participant

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True)
            yield from txn.abort()
            # Simulate a late retransmission of the same staging call.
            event = bed.clients["client"].endpoint.call(
                "s1", "txn.stage_write", timeout=1_000.0,
                txn=str(txn.txn_id), name="f", data=b"x", version=1,
                create=True)
            try:
                yield event
                return "resurrected"
            except TransactionAborted:
                return "refused"

        assert bed.run(flow()) == "refused"
        assert len(participant._active) == 0
        assert not participant.locks.holders_of("f")

    def test_late_commit_after_commit_still_acks(self, bed):
        manager = bed.clients["client"].manager

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True)
            yield from txn.commit()
            ack = yield bed.clients["client"].endpoint.call(
                "s1", "txn.commit", timeout=1_000.0, txn=str(txn.txn_id))
            return ack

        assert bed.run(flow()) == "ack"

    def test_late_abort_after_commit_is_harmless(self, bed):
        """An abort retransmission landing after commit must not undo
        anything (the commit already erased the record)."""
        manager = bed.clients["client"].manager

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"kept",
                           version=1, create=True)
            yield from txn.commit()
            yield bed.clients["client"].endpoint.call(
                "s1", "txn.abort", timeout=1_000.0, txn=str(txn.txn_id))
            data, version = yield txn.manager.endpoint.call(
                "s1", "txn.read", timeout=1_000.0,
                txn=str(manager.begin().txn_id), name="f")
            return data

        assert bed.run(flow()) == b"kept"


class TestDecisionMessagesSentSynchronously:
    def test_partition_right_after_read_does_not_strand_locks(self):
        """The scenario from the partition example: a remote reader's
        lock-release prepares must already be on the wire when the
        partition activates one event later."""
        bed = Testbed(servers=["s1", "s2", "s3"],
                      clients=["local", "remote"], seed=77)
        config = triple_config()
        local_suite = bed.install(config, b"data", client="local")
        remote_suite = bed.suite(config, client="remote")

        bed.run(remote_suite.read())
        bed.partition([["local", "s1", "s2", "s3"], ["remote"]])
        # The remote reader's shared locks were released by prepares
        # sent before the cut, so a local write proceeds immediately.
        start = bed.sim.now
        result = bed.run(local_suite.write(b"updated"))
        assert result.version == 2
        assert bed.sim.now - start < 100.0
