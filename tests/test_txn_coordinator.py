"""Two-phase commit: atomicity across every crash point, fast paths."""

import pytest

from repro.errors import TransactionAborted
from repro.testbed import Testbed


def build(crash_time=None, crash_server="s2", restart_after=250.0,
          seed=3):
    bed = Testbed(servers=["s1", "s2"], seed=seed, call_timeout=200.0)
    manager = bed.clients["client"].manager
    manager.commit_retry_interval = 100.0
    if crash_time is not None:
        def crasher():
            yield bed.sim.timeout(crash_time)
            bed.crash(crash_server)
            yield bed.sim.timeout(restart_after)
            bed.restart(crash_server)

        bed.sim.spawn(crasher(), name="crasher")
    return bed, manager


def two_server_write(manager):
    txn = manager.begin()
    yield txn.call("s1", "txn.stage_write", name="g", data=b"x", version=1,
                   create=True)
    yield txn.call("s2", "txn.stage_write", name="g", data=b"x", version=1,
                   create=True)
    yield from txn.commit()
    return "committed"


class TestHappyPath:
    def test_multi_server_commit(self):
        bed, manager = build()
        assert bed.run(two_server_write(manager)) == "committed"
        for name in ("s1", "s2"):
            assert bed.servers[name].server.fs.read_file_sync("g") == \
                (b"x", 1)

    def test_empty_transaction_commits(self):
        bed, manager = build()

        def flow():
            txn = manager.begin()
            yield from txn.commit()
            return txn.state

        assert bed.run(flow()) == "committed"

    def test_read_only_commit_returns_without_waiting(self):
        bed, manager = build()
        bed.run(two_server_write(manager))
        # Make every link slow: a read-only commit should not pay for it.
        bed.network.set_latency("client", "s1", 500.0)
        bed.network.set_latency("client", "s2", 500.0)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.read", name="g",
                           timeout=5_000.0)
            start = bed.sim.now
            yield from txn.commit()
            return bed.sim.now - start

        assert bed.run(flow()) == 0.0

    def test_commit_twice_rejected(self):
        bed, manager = build()

        def flow():
            txn = manager.begin()
            yield from txn.commit()
            try:
                yield from txn.commit()
                return "double"
            except TransactionAborted:
                return "refused"

        assert bed.run(flow()) == "refused"

    def test_call_after_commit_rejected(self):
        bed, manager = build()

        def flow():
            txn = manager.begin()
            yield from txn.commit()
            try:
                txn.call("s1", "txn.read", name="g")
                return "allowed"
            except TransactionAborted:
                return "refused"

        assert bed.run(flow()) == "refused"

    def test_abort_is_idempotent(self):
        bed, manager = build()

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="h", data=b"x",
                           version=1, create=True)
            yield from txn.abort()
            yield from txn.abort()
            return txn.state

        assert bed.run(flow()) == "aborted"


class TestCrashAtomicity:
    """Crash one participant at a sweep of times around the commit
    protocol; afterwards both servers agree and nothing is in doubt."""

    @pytest.mark.parametrize("crash_time",
                             [6.0, 9.0, 11.0, 13.0, 14.5, 15.5, 16.5,
                              18.0, 20.0, 30.0])
    def test_both_or_neither(self, crash_time):
        bed, manager = build(crash_time=crash_time)
        try:
            outcome = bed.run(two_server_write(manager))
        except TransactionAborted:
            outcome = "aborted"
        bed.settle(20_000.0)
        exists_s1 = bed.servers["s1"].server.fs.exists("g")
        exists_s2 = bed.servers["s2"].server.fs.exists("g")
        assert exists_s1 == exists_s2
        if outcome == "committed":
            assert exists_s1
        assert bed.servers["s2"].participant.in_doubt() == []
        assert bed.servers["s1"].participant.in_doubt() == []

    def test_commit_retries_reach_restarted_participant(self):
        # Crash after prepare votes are in, long before commit delivery.
        bed, manager = build(crash_time=16.5, restart_after=400.0)
        outcome = bed.run(two_server_write(manager))
        assert outcome == "committed"
        bed.settle(20_000.0)
        assert bed.servers["s2"].server.fs.read_file_sync("g") == (b"x", 1)


class TestAbortPaths:
    def test_prepare_failure_aborts_everywhere(self):
        bed, manager = build()
        bed.crash("s2")

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="g", data=b"x",
                           version=1, create=True)
            try:
                yield txn.call("s2", "txn.stage_write", name="g",
                               data=b"x", version=1, create=True)
            except Exception:
                pass
            try:
                yield from txn.commit()
                return "committed"
            except TransactionAborted:
                return "aborted"

        # s1 is fine, so commit succeeds with only s1 as participant.
        assert bed.run(flow()) == "committed"
        assert bed.servers["s1"].server.fs.exists("g")

    def test_unconfirmed_participants_get_aborts(self):
        bed, manager = build()

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="g", data=b"x",
                           version=1, create=True)
            # Call s2 but crash it so the reply is lost; its scratch
            # state (and exclusive lock) linger server-side.
            event = txn.call("s2", "txn.stage_write", name="g", data=b"x",
                             version=1, create=True, timeout=50.0)
            bed.crash("s2")
            try:
                yield event
            except Exception:
                pass
            bed.restart("s2")
            yield from txn.commit()
            return txn.state

        assert bed.run(flow()) == "committed"
        bed.settle(10_000.0)
        # s2 must not keep any transaction state.
        assert len(bed.servers["s2"].participant._active) == 0


class TestParticipantRestartInMidTransaction:
    """A member that restarts between a ``read_in`` and its
    ``write_in`` answers both but remembers only the second: the vote
    request says how many calls it answered, and it refuses."""

    def test_restart_between_read_in_and_write_in_aborts(self):
        from tests.helpers import triple_config
        bed = Testbed(servers=["s1", "s2", "s3"], seed=3)
        suite = bed.install(triple_config(), b"v1")
        manager = bed.clients["client"].manager

        def flow():
            txn = manager.begin()
            yield from suite.read_in(txn)
            bed.crash("s1")         # its shared lock is gone ...
            bed.restart("s1")
            yield from suite.write_in(txn, b"v2")
            assert txn.answered["s1"] == 3  # stat, stat, stage
            with pytest.raises(TransactionAborted,
                               match="prepare failed at s1.*2 of 3"):
                yield from txn.commit()

        bed.run(flow())
        bed.settle(10_000.0)
        for node in bed.servers.values():
            assert node.server.fs.read_file_sync("suite:db") == (b"v1", 1)
            assert node.server.fs.intentions() == {}
            assert not node.participant._active

    def test_transact_retries_past_the_refusal(self):
        from tests.helpers import triple_config
        bed = Testbed(servers=["s1", "s2", "s3"], seed=3)
        suite = bed.install(triple_config(), b"v1")
        restarts = []

        def bump(txn):
            current = yield from suite.read_in(txn)
            if not restarts:
                restarts.append(bed.sim.now)
                bed.crash("s1")
                bed.restart("s1")
            return (yield from suite.write_in(txn, current.data + b"+"))

        result = bed.run(suite.transact(bump))
        assert result.attempts == 2 and result.version == 2
        assert bed.run(suite.read()).data == b"v1+"
