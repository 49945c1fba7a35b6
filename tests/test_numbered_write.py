"""A suite ``write()`` is two rounds: the stage carries the inquiry and
the vote, and the commit numbers the write.

These tests race writers on overlapping quorums, plant the late-voter
race on fixed timing, and drive the participant's numbered commit
directly: a number at or below the copy's version is never installed.
"""

import pytest

from repro.errors import InvalidTransactionState
from repro.testbed import Testbed
from repro.verification import HistoryRecorder, check_history
from tests.helpers import (assert_pages_balanced, triple_config,
                           watch_requests)

SERVERS = ["s1", "s2", "s3"]


def settled(event):
    """A process body that waits for ``event`` and returns its value."""
    return (yield event)


def versions(bed, name="suite:db"):
    return {server: bed.servers[server].server.fs.stat(name).version
            for server in SERVERS}


class TestRacingWriters:
    """Three clients write concurrently, each nearest a different pair
    of representatives, so their first ``w`` votes come from
    overlapping quorums and their stages queue behind each other's
    exclusive locks."""

    CLIENTS = {"a": ("s1", "s2"), "b": ("s2", "s3"), "c": ("s1", "s3")}

    def run_race(self, seed, writes_each=6):
        bed = Testbed(servers=SERVERS, clients=list(self.CLIENTS),
                      seed=seed, lock_timeout=2_000.0)
        for client, near in self.CLIENTS.items():
            for server in SERVERS:
                bed.network.set_latency(
                    client, server, 1.0 if server in near else 4.0)
        config = triple_config()
        history = []
        recorders = {}
        for client in self.CLIENTS:
            suite = (bed.install(config, b"seed", client=client)
                     if not recorders else bed.suite(config, client=client))
            suite.max_attempts = 8
            recorders[client] = HistoryRecorder(suite, history)
        seen = {server: [] for server in SERVERS}
        done = []

        def sample():
            # Every copy's version, every half millisecond, until the
            # writers are done: none may ever go down.
            while not done:
                for server, trail in seen.items():
                    trail.append(versions(bed)[server])
                yield bed.sim.timeout(0.5)

        def writer(client):
            for n in range(writes_each):
                yield from recorders[client].write(f"{client}{n}".encode())

        bed.sim.spawn(sample(), name="sampler")
        writers = [bed.sim.spawn(writer(client), name=f"writer-{client}")
                   for client in self.CLIENTS]
        bed.sim.run_until(bed.sim.all_of(writers))
        done.append(True)
        bed.settle()
        return bed, history, seen

    def test_history_is_clean_and_numbers_are_dense(self):
        for seed in (1, 2, 3):
            bed, history, seen = self.run_race(seed)
            writes = [op for op in history if op.kind == "write"]
            assert len(writes) == 18 and all(op.ok for op in writes)
            assert check_history(history, initial_tag="seed").violations \
                == []
            # Every committed write got its own number, one past the
            # last: no number reused, none skipped by an aborted try.
            assert sorted(op.version for op in writes) == \
                list(range(2, 20))
            # Committed versions increase in real time.
            by_finish = sorted(writes, key=lambda op: op.finished)
            for earlier, later in zip(by_finish, by_finish[1:]):
                if earlier.finished < later.started:
                    assert earlier.version < later.version
            for trail in seen.values():
                assert trail == sorted(trail), "a copy went backwards"
            assert set(versions(bed).values()) == {19}
            for node in bed.servers.values():
                assert node.server.fs.intentions() == {}
                assert node.participant.in_doubt() == []
                assert_pages_balanced(node.server.fs)


class TestLateVoter:
    """W stages at s1, s2 and s3 and decides ``v+1`` on s1 and s2 while
    its stage at s3 waits behind writer B.  B then gets s1 and s2 after
    W's commit, numbers ``v+2`` and commits at s3.  W's late vote at s3
    reports ``v+2``: it is aborted, and s3 stays at ``v+2``."""

    def test_late_vote_above_the_number_is_aborted(self):
        bed = Testbed(servers=SERVERS, clients=["w", "b"], seed=5)
        # W is near s1 and s2, B near s3: B's stage takes s3's lock
        # first, W's take s1's and s2's.
        for server, (to_w, to_b) in {"s1": (1.0, 6.0), "s2": (1.0, 6.0),
                                     "s3": (10.0, 1.0)}.items():
            bed.network.set_latency("w", server, to_w)
            bed.network.set_latency("b", server, to_b)
        config = triple_config()
        history = []
        w = HistoryRecorder(bed.install(config, b"v1", client="w"),
                            history)
        b = HistoryRecorder(bed.suite(config, client="b"), history)
        sent = watch_requests(bed)
        wrote = bed.sim.spawn(w.write(b"from-w"))
        wrote_b = bed.sim.spawn(b.write(b"from-b"))
        bed.sim.run_until(bed.sim.all_of([wrote, wrote_b]))
        bed.settle()
        assert (wrote.value.version, wrote.value.quorum) == \
            (2, ["rep-1", "rep-2"])
        assert wrote.value.stale == ["rep-3"]
        assert (wrote_b.value.version, wrote_b.value.quorum) == \
            (3, ["rep-1", "rep-2", "rep-3"])
        assert versions(bed) == {"s1": 3, "s2": 3, "s3": 3}
        assert bed.servers["s3"].server.fs.read_file_sync("suite:db") \
            == (b"from-b", 3)
        # W's vote at s3 landed after W's decision, reporting v+2: it
        # was aborted, never committed, and nothing refreshed s3.
        w_txn = next(request.args["txn"]
                     for server, request in sent
                     if request.source == "w"
                     and request.method == "txn.stage_write")
        to_s3 = [request.method for server, request in sent
                 if server == "s3" and request.args.get("txn") == w_txn]
        assert to_s3 == ["txn.stage_write", "txn.abort"]
        assert bed.metrics.counter("refresh.scheduled").value == 0
        assert check_history(history, initial_tag="v1").violations == []
        for node in bed.servers.values():
            assert node.server.fs.intentions() == {}
            assert not node.participant._active


class TestNumberedCommit:
    """The participant installs a numbered row only above the copy's
    committed version; otherwise it discards the row."""

    def prepared(self, copy_version):
        bed = Testbed(servers=["s1"], seed=3)
        endpoint = bed.clients["client"].endpoint

        def flow():
            yield endpoint.call("s1", "txn.stage_write", txn="c#1",
                                name="f", data=b"old", version=copy_version,
                                create=True, one_phase=True)
            vote = yield endpoint.call("s1", "txn.stage_write", txn="c#2",
                                       name="f", data=b"new" * 100,
                                       prepare=True)
            return vote

        vote = bed.run(flow())
        assert vote == {"version": copy_version, "stamp": 0}
        (row,) = bed.servers["s1"].server.fs.intentions()["c#2"]
        assert row.version is None
        return bed, endpoint

    def commit(self, bed, endpoint, number):
        fs = bed.servers["s1"].server.fs
        free = fs.free_pages
        assert bed.run(settled(endpoint.call(
            "s1", "txn.commit", txn="c#2", version=number))) == "ack"
        assert fs.intentions() == {}
        assert bed.servers["s1"].participant.locks.holders_of("f") == {}
        assert_pages_balanced(fs)
        return fs.read_file_sync("f"), fs.free_pages - free

    def test_a_number_at_or_below_the_copy_is_discarded(self):
        for number in (4, 5):
            bed, endpoint = self.prepared(copy_version=5)
            (data, version), freed = self.commit(bed, endpoint, number)
            assert (data, version) == (b"old", 5)
            assert freed >= 1                  # the row's chain is free

    def test_a_number_above_the_copy_is_installed(self):
        bed, endpoint = self.prepared(copy_version=5)
        (data, version), _freed = self.commit(bed, endpoint, 6)
        assert (data, version) == (b"new" * 100, 6)

    def test_the_lag_is_reported_at_the_numbered_commit(self):
        """The vote no longer knows the suite's version; the number
        does: a copy at 2 committing number 5 was two versions behind
        the suite's version 4, and is current once installed."""
        bed, endpoint = self.prepared(copy_version=2)
        lag = bed.servers["s1"].endpoint.metrics.gauge(
            "rep.version_lag[file=f,server=s1]")
        assert lag.maximum == 0.0
        self.commit(bed, endpoint, 5)
        assert (lag.maximum, lag.value) == (2.0, 0.0)

    def test_a_version_less_stage_must_vote(self):
        bed = Testbed(servers=["s1"], seed=3)
        endpoint = bed.clients["client"].endpoint
        with pytest.raises(InvalidTransactionState, match="must vote"):
            bed.run(settled(endpoint.call(
                "s1", "txn.stage_write", txn="c#1", name="f", data=b"x",
                create=True)))
