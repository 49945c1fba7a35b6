"""Participant handlers, 2PC votes, recovery, and the idle sweeper."""

import pytest

from repro.errors import (InvalidTransactionState, LockTimeoutError,
                          NoSuchFileError, RpcTimeout, TransactionAborted)
from repro.testbed import Testbed
from repro.txn import EXCLUSIVE, VOTE_PREPARED, VOTE_READ_ONLY
from tests.helpers import assert_pages_balanced, watch_requests


@pytest.fixture
def bed():
    return Testbed(servers=["s1", "s2"], seed=3, idle_abort_after=1_000.0)


def manager_of(bed):
    return bed.clients["client"].manager


def files_on(bed, server="s1"):
    fs = bed.servers[server].server.fs
    return {name: fs.read_file_sync(name) for name in fs.list_files()}


def rows_on(bed, server="s1"):
    """Intention rows on disk, as ``{txn: [(name, version, delete)]}``."""
    return {txn: [(row.name, row.version, row.delete) for row in rows]
            for txn, rows
            in bed.servers[server].server.fs.intentions().items()}


def time_the_update(bed, process, expected, server="s1", tap="update",
                    through=None):
    """Dry run of a crash loop: let ``process`` finish and report when
    the participant's file-system operation ``tap`` (``update``,
    ``intend`` or ``resolve``) started and how many page steps were
    taken from there to the end of the operation ``through`` (the
    same one, unless given)."""
    node = bed.servers[server].server
    stores = (node.stable.primary.pages, node.stable.shadow.pages)
    seen = {}

    def page_writes():
        return sum(store.writes for store in stores)

    def tapping(name):
        operation = getattr(node, name)

        def tapped(*args, **kwargs):
            seen.setdefault("start", bed.sim.now)
            seen.setdefault("writes", page_writes())
            result = yield from operation(*args, **kwargs)
            seen["end"] = page_writes()
            return result

        setattr(node, name, tapped)

    for name in {tap, through or tap}:
        tapping(name)
    bed.settle()
    assert process.triggered and files_on(bed, server) == expected
    return seen["start"], seen["end"] - seen["writes"]


class TestDataOperations:
    def test_stage_and_commit_visible(self, bed):
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"v1",
                           version=1, create=True)
            yield from txn.commit()
            txn2 = manager.begin()
            result = yield txn2.call("s1", "txn.read", name="f")
            yield from txn2.commit()
            return result

        assert tuple(bed.run(flow())) == (b"v1", 1)

    def test_read_your_own_writes(self, bed):
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"mine",
                           version=9, create=True)
            data, version = yield txn.call("s1", "txn.read", name="f")
            stat = yield txn.call("s1", "txn.stat", name="f")
            yield from txn.abort()
            return data, version, stat["version"]

        assert tuple(bed.run(flow())) == (b"mine", 9, 9)

    def test_aborted_write_invisible(self, bed):
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"no",
                           version=1, create=True)
            yield from txn.abort()

        bed.run(flow())
        assert not bed.servers["s1"].server.fs.exists("f")

    def test_stage_delete(self, bed):
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True)
            yield from txn.commit()
            txn2 = manager.begin()
            yield txn2.call("s1", "txn.stage_delete", name="f")
            yield from txn2.commit()

        bed.run(flow())
        assert not bed.servers["s1"].server.fs.exists("f")

    def test_read_deleted_in_txn_fails(self, bed):
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True)
            yield from txn.commit()
            txn2 = manager.begin()
            yield txn2.call("s1", "txn.stage_delete", name="f")
            try:
                yield txn2.call("s1", "txn.read", name="f")
                outcome = "read ok"
            except NoSuchFileError:
                outcome = "missing"
            yield from txn2.abort()
            return outcome

        assert bed.run(flow()) == "missing"

    def test_only_if_newer_skips_stale_write(self, bed):
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"v5",
                           version=5, create=True)
            yield from txn.commit()
            txn2 = manager.begin()
            outcome = yield txn2.call(
                "s1", "txn.stage_write", name="f", data=b"v3", version=3,
                only_if_newer=True)
            yield from txn2.commit()
            return outcome

        assert bed.run(flow()) == "skipped"
        assert bed.servers["s1"].server.fs.read_file_sync("f") == (b"v5", 5)

    def test_stat_detail_returns_properties(self, bed):
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True,
                           properties={"stamp": 4, "config": {"a": 1}})
            yield from txn.commit()
            txn2 = manager.begin()
            plain = yield txn2.call("s1", "txn.stat", name="f")
            detailed = yield txn2.call("s1", "txn.stat", name="f",
                                       detail=True)
            yield from txn2.commit()
            return plain, detailed

        plain, detailed = bed.run(flow())
        assert plain == {"version": 1, "stamp": 4}
        assert detailed["properties"]["config"] == {"a": 1}


class TestVotes:
    def test_read_only_vote(self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True)
            yield from txn.commit()
            txn2 = manager.begin()
            yield txn2.call("s1", "txn.read", name="f")
            vote = yield txn2.call("s1", "txn.prepare")
            return vote

        assert bed.run(flow()) == VOTE_READ_ONLY

    def test_prepare_vote_and_durable_record(self, bed):
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True)
            vote = yield txn.call("s1", "txn.prepare")
            return vote, str(txn.txn_id)

        vote, txn_text = bed.run(flow())
        assert vote == VOTE_PREPARED
        # Durable as one row in the file's own bucket, pointing at the
        # shadow chain that already holds the data; the file itself is
        # not there yet, and no record file stands in for it.
        fs = bed.servers["s1"].server.fs
        (row,) = fs.intentions()[txn_text]
        assert (row.name, row.version, row.length, row.delete) == \
            ("f", 1, 1, False)
        assert row in fs._buckets[fs._bucket_of("f")].rows
        assert fs._walk_chain_sync(row.head)[0] == [b"x"]
        assert fs.list_files() == []
        assert_pages_balanced(fs)

    def test_second_prepare_votes_again_without_writing(self, bed):
        manager = manager_of(bed)
        pages = bed.servers["s1"].server.stable.primary.pages

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True)
            yield txn.call("s1", "txn.prepare")
            writes = pages.writes
            vote = yield txn.call("s1", "txn.prepare")
            return vote, pages.writes - writes

        assert bed.run(flow()) == (VOTE_PREPARED, 0)

    def test_prepare_unknown_transaction_refused(self, bed):
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            txn.participants.add("s1")  # pretend we talked to it
            txn.staged.add("s1")
            try:
                yield from txn.commit()
                return "committed"
            except TransactionAborted:
                return "aborted"

        assert bed.run(flow()) == "aborted"


class TestRecovery:
    def test_prepared_record_goes_in_doubt_and_blocks(self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def prepare_only():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True)
            yield txn.call("s1", "txn.prepare")
            return txn

        txn = bed.run(prepare_only())
        bed.crash("s1")
        bed.restart("s1")
        assert participant.in_doubt() == [txn.txn_id]
        # The in-doubt transaction holds an exclusive lock on "f".
        assert participant.locks.holds(txn.txn_id, "f", EXCLUSIVE)

    def test_in_doubt_resolved_by_commit(self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def prepare_only():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"late",
                           version=3, create=True)
            yield txn.call("s1", "txn.prepare")
            return txn

        txn = bed.run(prepare_only())
        bed.crash("s1")
        bed.restart("s1")

        def resolve():
            fresh = manager.begin()  # any txn handle can carry the call
            ack = yield manager.endpoint.call(
                "s1", "txn.commit", timeout=1_000.0, txn=str(txn.txn_id))
            return ack

        assert bed.run(resolve()) == "ack"
        assert participant.in_doubt() == []
        assert bed.servers["s1"].server.fs.read_file_sync("f") == (b"late", 3)

    def test_in_doubt_resolved_by_abort(self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def prepare_only():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="g", data=b"x",
                           version=1, create=True)
            yield txn.call("s1", "txn.prepare")
            return txn

        txn = bed.run(prepare_only())
        bed.crash("s1")
        bed.restart("s1")

        def resolve():
            ack = yield manager.endpoint.call(
                "s1", "txn.abort", timeout=1_000.0, txn=str(txn.txn_id))
            return ack

        assert bed.run(resolve()) == "ack"
        assert participant.in_doubt() == []
        assert not bed.servers["s1"].server.fs.exists("g")


class TestCommitCrashAtEveryStep:
    """The vote's root flip makes the transaction prepared, the
    commit's root flip is the commit point: kill the participant after
    every page step of ``txn.prepare`` and of ``txn.commit`` and
    restart it."""

    OLD = {"a": (b"old-a" * 30, 1), "c": (b"old-c" * 30, 1)}
    NEW = {"a": (b"new-a" * 50, 2), "b": (b"new-b" * 10, 1)}
    ROWS = [("a", 2, False), ("b", 1, False), ("c", 0, True)]

    def start(self, page_size):
        """A bed with the old state installed and the transaction's
        coordinator spawned (not yet run)."""
        bed = Testbed(servers=["s1"], seed=3, page_io_time=1.0,
                      page_size=page_size, idle_abort_after=None)
        manager = manager_of(bed)
        holder = {}

        def setup():
            txn = manager.begin()
            for name, (data, version) in self.OLD.items():
                yield txn.call("s1", "txn.stage_write", name=name,
                               data=data, version=version, create=True)
            yield from txn.commit()

        def flow():
            txn = holder["txn"] = manager.begin()
            for name, (data, version) in self.NEW.items():
                yield txn.call("s1", "txn.stage_write", name=name,
                               data=data, version=version, create=True)
            yield txn.call("s1", "txn.stage_delete", name="c")
            try:
                yield from txn.commit()
            except TransactionAborted:
                return "aborted"
            return "committed"

        bed.run(setup())
        return bed, bed.sim.spawn(flow()), holder

    def measure(self, page_size, tap):
        """Dry run: when the participant's ``tap`` operation starts and
        how many page steps it takes."""
        bed, process, _holder = self.start(page_size)
        return time_the_update(bed, process, self.NEW, tap=tap)

    def crashed(self, page_size, at):
        """The flow run to virtual time ``at``, then s1 killed and
        restarted; pages must balance whatever was on disk."""
        bed, process, holder = self.start(page_size)
        bed.sim.run(until=at)
        bed.crash("s1")
        bed.restart("s1")
        assert_pages_balanced(bed.servers["s1"].server.fs)
        return bed, process, holder["txn"].txn_id

    def assert_in_doubt(self, bed, txn_id):
        participant = bed.servers["s1"].participant
        assert participant.in_doubt() == [txn_id]
        assert files_on(bed) == self.OLD
        assert rows_on(bed) == {str(txn_id): self.ROWS}
        for name in "abc":
            assert participant.locks.holds(txn_id, name, EXCLUSIVE)

    def assert_finished(self, bed, txn_id, files):
        participant = bed.servers["s1"].participant
        assert files_on(bed) == files and rows_on(bed) == {}
        assert participant.in_doubt() == []
        assert participant.locks.locked_resources(txn_id) == set()
        assert_pages_balanced(bed.servers["s1"].server.fs)

    @pytest.mark.parametrize("page_size", [128, 512])
    def test_in_doubt_or_applied_then_retry_converges(self, page_size):
        start, steps = self.measure(page_size, "resolve")
        # Bucket chains and the root, primary + shadow: no data page.
        assert 4 <= steps <= 2 * (3 * 2 + 1)
        in_doubt_runs = applied_runs = 0
        for done in range(steps + 1):
            # Step j's page write lands at start + j: stop between
            # write ``done - 1`` and write ``done``.
            bed, process, txn_id = self.crashed(page_size,
                                                start + done - 0.5)
            if bed.servers["s1"].participant.in_doubt():
                in_doubt_runs += 1
                self.assert_in_doubt(bed, txn_id)
            else:
                applied_runs += 1
                assert files_on(bed) == self.NEW
            # The coordinator keeps re-sending its decision.
            bed.settle(30_000.0)
            assert process.value == "committed"
            self.assert_finished(bed, txn_id, self.NEW)
        assert in_doubt_runs and applied_runs

    @pytest.mark.parametrize("page_size", [128, 512])
    def test_vote_lost_in_a_crash_aborts_and_frees_the_shadow_pages(
            self, page_size):
        start, steps = self.measure(page_size, "intend")
        assert steps >= 8  # two data chains, their buckets, the root
        in_doubt_runs = old_runs = 0
        for done in range(steps + 1):
            bed, process, txn_id = self.crashed(page_size,
                                                start + done - 0.5)
            if bed.servers["s1"].participant.in_doubt():
                in_doubt_runs += 1
                self.assert_in_doubt(bed, txn_id)
            else:
                old_runs += 1
                assert files_on(bed) == self.OLD and rows_on(bed) == {}
            # The vote never arrived: the retransmitted request finds
            # a participant that has forgotten the stages, is refused,
            # and the coordinator's abort takes the rows back.
            bed.settle(30_000.0)
            assert process.value == "aborted"
            self.assert_finished(bed, txn_id, self.OLD)
        assert in_doubt_runs and old_runs


class TestVotingStage:
    """``stage_write(prepare=True)``: stage and vote in one call."""

    def install(self, bed, name="f", data=b"old", version=1):
        TestReleasingCalls.install(self, bed, name, data, version)

    def test_stages_records_and_votes_and_commit_skips_phase_one(
            self, bed):
        self.install(bed)
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stat", name="f", mode=EXCLUSIVE)
            vote = yield txn.call("s1", "txn.stage_write", name="f",
                                  data=b"new", version=2, prepare=True)
            assert rows_on(bed) == {str(txn.txn_id): [("f", 2, False)]}
            assert participant._active[txn.txn_id].prepared
            assert files_on(bed) == {"f": (b"old", 1)}
            sent = bed.network.messages_sent
            yield from txn.commit()
            return txn, vote, bed.network.messages_sent - sent

        txn, vote, commit_messages = bed.run(flow())
        assert vote == VOTE_PREPARED
        assert txn.voted == txn.staged == txn.participants == {"s1"}
        assert txn.answered == {"s1": 2}
        assert commit_messages == 2     # txn.commit and its ack
        assert files_on(bed) == {"f": (b"new", 2)} and rows_on(bed) == {}
        assert_nothing_left(participant, txn.txn_id)

    def test_lock_holders_are_released_without_being_waited_for(self):
        bed = Testbed(servers=["s1", "s2"], seed=3)
        manager = manager_of(bed)
        bed.network.set_latency("client", "s2", 40.0)

        def flow():
            txn = manager.begin()
            yield txn.call("s2", "txn.stat", name="g", mode=EXCLUSIVE)
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True, prepare=True)
            started, sent = bed.sim.now, bed.network.messages_sent
            yield from txn.commit()
            return txn, bed.sim.now - started, sent

        def make_g():
            txn = manager.begin()
            yield txn.call("s2", "txn.stage_write", name="g", data=b"g",
                           version=1, create=True)
            yield from txn.commit()

        bed.run(make_g())
        txn, took, sent = bed.run(flow())
        assert took < 10.0              # one round to s1, none to s2
        bed.settle(5_000.0)
        # commit + ack at s1, release-prepare + read-only vote at s2.
        assert bed.network.messages_sent - sent == 4
        assert_nothing_left(bed.servers["s2"].participant, txn.txn_id)

    def test_explicit_round_covers_whoever_has_not_voted(self):
        """A transaction that mixes a voting stage with a plain one
        still asks the plain stager for its vote, and commits both."""
        bed = Testbed(servers=["s1", "s2"], seed=3)
        manager = manager_of(bed)
        requests = watch_requests(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"1",
                           version=1, create=True, prepare=True)
            yield txn.call("s2", "txn.stage_write", name="f", data=b"2",
                           version=1, create=True)
            yield from txn.commit()
            return txn

        txn = bed.run(flow())
        asked = [(server, request.args["answered"])
                 for server, request in requests
                 if request.method == "txn.prepare"]
        assert txn.voted == {"s1"} and asked == [("s2", 1)]
        assert files_on(bed, "s1") == {"f": (b"1", 1)}
        assert files_on(bed, "s2") == {"f": (b"2", 1)}

    def test_refused_when_already_prepared_or_holding_another_intention(
            self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            voted = manager.begin()
            yield voted.call("s1", "txn.stage_write", name="a", data=b"a",
                             version=1, create=True, prepare=True)
            with pytest.raises(InvalidTransactionState,
                               match="already prepared"):
                yield voted.call("s1", "txn.stage_write", name="b",
                                 data=b"b", version=1, create=True,
                                 prepare=True)
            holding = manager.begin()
            yield holding.call("s1", "txn.stage_write", name="c",
                               data=b"c", version=1, create=True)
            with pytest.raises(InvalidTransactionState,
                               match="voting stage"):
                yield holding.call("s1", "txn.stage_write", name="d",
                                   data=b"d", version=1, create=True,
                                   prepare=True)
            # Neither refusal touched anything.
            assert not participant.locks.holds(voted.txn_id, "b")
            assert not participant.locks.holds(holding.txn_id, "d")
            assert rows_on(bed) == {str(voted.txn_id): [("a", 1, False)]}
            yield from voted.commit()
            yield from holding.commit()

        bed.run(flow())
        assert sorted(files_on(bed)) == ["a", "c"]

    def test_skipped_stage_does_not_vote(self, bed):
        self.install(bed, version=5)
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            outcome = yield txn.call(
                "s1", "txn.stage_write", name="f", data=b"v3", version=3,
                only_if_newer=True, prepare=True)
            voted = set(txn.voted)
            yield from txn.commit()
            return outcome, voted

        assert bed.run(flow()) == ("skipped", set())
        assert rows_on(bed) == {} and files_on(bed) == {"f": (b"old", 5)}

    def test_lost_prepared_reply_is_a_no_and_abort_takes_the_row_back(
            self):
        bed = Testbed(servers=["s1"], seed=3, call_timeout=200.0,
                      page_io_time=1.0)
        self.install(bed)
        manager = manager_of(bed)
        manager.transport_attempts = 1
        participant = bed.servers["s1"].participant
        fs = bed.servers["s1"].server.fs
        free_before = fs.free_pages

        def cut_the_reply():
            yield bed.sim.timeout(1.5)      # the request has arrived
            bed.partition([["client"], ["s1"]])
            yield bed.sim.timeout(100.0)
            assert rows_on(bed)             # ... and been voted for
            bed.heal()

        def flow():
            txn = manager.begin()
            bed.sim.spawn(cut_the_reply())
            try:
                yield txn.call("s1", "txn.stage_write", name="f",
                               data=b"new", version=2, prepare=True)
            except RpcTimeout:
                assert txn.voted == set() and txn.attempted == {"s1"}
                yield from txn.abort()
                return txn
            raise AssertionError("the reply got through")

        txn = bed.run(flow())
        bed.settle(5_000.0)
        assert rows_on(bed) == {} and files_on(bed) == {"f": (b"old", 1)}
        assert fs.free_pages == free_before
        assert_nothing_left(participant, txn.txn_id)
        assert_pages_balanced(fs)

    def test_abort_overtaking_a_slow_vote_leaves_no_row(self):
        """The client gives up while the disk is still writing the
        vote: the handler finds itself aborted and takes the row back."""
        bed = Testbed(servers=["s1"], seed=3, page_io_time=20.0,
                      idle_abort_after=None)
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            txn = manager.begin()
            vote = txn.call("s1", "txn.stage_write", name="f", data=b"x",
                            version=1, create=True, prepare=True)
            yield bed.sim.timeout(30.0)     # mid-intend
            yield manager.endpoint.call("s1", "txn.abort", timeout=1_000.0,
                                        txn=str(txn.txn_id))
            with pytest.raises(TransactionAborted, match="while it was"):
                yield vote
            return txn

        txn = bed.run(flow())
        assert rows_on(bed) == {} and files_on(bed) == {}
        assert_nothing_left(participant, txn.txn_id)
        assert_pages_balanced(bed.servers["s1"].server.fs)

    def test_late_first_delivery_after_recovery_is_refused(self, bed):
        """A resent voting stage (new call id) reaching a participant
        that already holds the transaction in doubt changes nothing."""
        self.install(bed)
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant
        request = dict(name="f", data=b"new", version=2, prepare=True,
                       answered=1)

        def vote():
            txn = manager.begin()
            yield txn.call("s1", "txn.stat", name="f", mode=EXCLUSIVE)
            yield txn.call("s1", "txn.stage_write", **{
                key: value for key, value in request.items()
                if key != "answered"})
            return txn

        txn = bed.run(vote())
        bed.crash("s1")
        bed.restart("s1")
        assert participant.in_doubt() == [txn.txn_id]

        def late():
            for answered in (1, 0):
                with pytest.raises(TransactionAborted):
                    yield manager.endpoint.call(
                        "s1", "txn.stage_write", timeout=1_000.0,
                        txn=str(txn.txn_id),
                        **dict(request, answered=answered))

        bed.run(late())
        assert participant.in_doubt() == [txn.txn_id]
        assert txn.txn_id not in participant._active
        assert rows_on(bed) == {str(txn.txn_id): [("f", 2, False)]}
        assert participant.locks.holds(txn.txn_id, "f", EXCLUSIVE)
        assert files_on(bed) == {"f": (b"old", 1)}
        bed.run(txn.commit())
        assert files_on(bed) == {"f": (b"new", 2)}


class TestVotingStageCrashAtEveryStep:
    """Kill the participant after every page step from the start of a
    voting stage's ``intend`` to the end of the commit's ``resolve``,
    with the coordinator carrying on (abort when the vote was lost,
    commit retries once it has decided)."""

    OLD = {"f": (b"old-f" * 30, 1)}
    NEW = {"f": (b"new-f" * 50, 2)}
    #: The intention row an in-doubt copy holds: ``(name, version,
    #: delete)``.
    ROW = ("f", 2, False)
    #: ``(state after the crash, outcome)`` pairs the loop must see.  A
    #: crash before the vote is out aborts (from old or from in doubt):
    #: the retransmitted stage says it follows an answered inquiry,
    #: which the restarted copy no longer remembers; after it the
    #: decision is commit (from in doubt or already new); new is never
    #: aborted.
    OUTCOMES = {("old", "aborted"), ("in-doubt", "aborted"),
                ("in-doubt", "committed"), ("new", "committed")}

    def stage(self, txn):
        """The transaction's calls before its commit."""
        data, version = self.NEW["f"]
        yield txn.call("s1", "txn.stat", name="f", mode=EXCLUSIVE)
        yield txn.call("s1", "txn.stage_write", name="f", data=data,
                       version=version, prepare=True)

    def start(self, page_size):
        bed = Testbed(servers=["s1"], seed=3, page_io_time=1.0,
                      page_size=page_size, idle_abort_after=None)
        manager = manager_of(bed)
        holder = {}

        def setup():
            txn = manager.begin()
            data, version = self.OLD["f"]
            yield txn.call("s1", "txn.stage_write", name="f", data=data,
                           version=version, create=True, prepare=True)
            yield from txn.commit()

        def flow():
            txn = holder["txn"] = manager.begin()
            try:
                yield from self.stage(txn)
                yield from txn.commit()
            except (TransactionAborted, RpcTimeout):
                yield from txn.abort()
                return "aborted"
            return "committed"

        bed.run(setup())
        assert files_on(bed) == self.OLD
        return bed, bed.sim.spawn(flow()), holder

    @pytest.mark.parametrize("page_size", [128, 512])
    def test_old_in_doubt_or_new_and_the_coordinator_converges(
            self, page_size):
        bed, process, _holder = self.start(page_size)
        start, steps = time_the_update(bed, process, self.NEW,
                                       tap="intend", through="resolve")
        assert steps >= 10  # data, bucket, root; bucket, root; twice
        seen = set()
        # Two message delays sit between the vote and the commit.
        for tick in range(steps + 4):
            bed, process, holder = self.start(page_size)
            bed.sim.run(until=start + tick - 0.5)
            bed.crash("s1")
            bed.restart("s1")
            txn_id = holder["txn"].txn_id
            participant = bed.servers["s1"].participant
            fs = bed.servers["s1"].server.fs
            assert_pages_balanced(fs)
            if participant.in_doubt():
                assert participant.in_doubt() == [txn_id]
                assert files_on(bed) == self.OLD
                assert rows_on(bed) == {str(txn_id): [self.ROW]}
                assert participant.locks.holds(txn_id, "f", EXCLUSIVE)
                state = "in-doubt"
            else:
                assert rows_on(bed) == {}
                state = "old" if files_on(bed) == self.OLD else "new"
                assert files_on(bed) in (self.OLD, self.NEW)
            bed.settle(60_000.0)
            outcome = process.value
            seen.add((state, outcome))
            assert files_on(bed) == (self.NEW if outcome == "committed"
                                     else self.OLD)
            assert participant.in_doubt() == [] and rows_on(bed) == {}
            assert participant.locks.locked_resources(txn_id) == set()
            assert_pages_balanced(fs)
            assert_pages_balanced(bed.servers["s1"].server.fs)
        assert seen == self.OUTCOMES


class TestUnnumberedVotingStageCrashAtEveryStep(
        TestVotingStageCrashAtEveryStep):
    """The same kill loop over a suite ``write()``'s stage: no version
    and no inquiry, the copy votes its current version, and every
    ``txn.commit`` — the decision's and each retry — carries the
    number, so an in-doubt row is installed as version 2."""

    ROW = ("f", None, False)
    #: The stage is the transaction's first call here, so a crash that
    #: leaves the copy old lets its retransmission run again and commit.
    OUTCOMES = {("old", "committed"), ("in-doubt", "aborted"),
                ("in-doubt", "committed"), ("new", "committed")}

    def stage(self, txn):
        vote = yield txn.call("s1", "txn.stage_write", name="f",
                              data=self.NEW["f"][0], prepare=True)
        assert vote == {"version": 1, "stamp": 0}


class TestRestartInMidTransaction:
    """A participant that restarts between two calls of one transaction
    has lost the first call's lock and intention.  The vote request
    names how many calls it answered, so it refuses instead of voting
    for what is left."""

    def one_server(self):
        return Testbed(servers=["s1"], seed=3, idle_abort_after=None)

    def test_partial_commit_is_refused(self):
        bed = self.one_server()
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="a", data=b"a",
                           version=1, create=True)
            bed.crash("s1")
            bed.restart("s1")
            yield txn.call("s1", "txn.stage_write", name="b", data=b"b",
                           version=1, create=True)
            assert txn.answered == {"s1": 2}
            with pytest.raises(TransactionAborted, match="1 of 2"):
                yield from txn.commit()
            return txn

        txn = bed.run(flow())
        bed.settle(5_000.0)
        assert txn.state == "aborted"
        assert files_on(bed) == {} and rows_on(bed) == {}
        assert_nothing_left(bed.servers["s1"].participant, txn.txn_id)

    def test_restart_between_the_stages_of_a_larger_transaction(self):
        crash_flow = TestCommitCrashAtEveryStep()
        bed = Testbed(servers=["s1"], seed=3, idle_abort_after=None)
        manager = manager_of(bed)

        def setup():
            txn = manager.begin()
            for name, (data, version) in crash_flow.OLD.items():
                yield txn.call("s1", "txn.stage_write", name=name,
                               data=data, version=version, create=True)
            yield from txn.commit()

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="a",
                           data=b"new-a" * 50, version=2)
            bed.crash("s1")
            bed.restart("s1")
            yield txn.call("s1", "txn.stage_write", name="b",
                           data=b"new-b" * 10, version=1, create=True)
            yield txn.call("s1", "txn.stage_delete", name="c")
            with pytest.raises(TransactionAborted):
                yield from txn.commit()

        bed.run(setup())
        bed.run(flow())
        bed.settle(5_000.0)
        assert files_on(bed) == crash_flow.OLD      # not a-old, b, no c

    def test_voting_stage_after_a_restart_is_refused(self):
        bed = self.one_server()
        TestReleasingCalls.install(self, bed)
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stat", name="f", mode=EXCLUSIVE)
            bed.crash("s1")
            bed.restart("s1")
            with pytest.raises(TransactionAborted, match="0 of 1"):
                yield txn.call("s1", "txn.stage_write", name="f",
                               data=b"new", version=2, prepare=True)
            # Refused before anything was touched.
            assert txn.txn_id not in participant._active
            assert participant.locks.holders_of("f") == {}
            yield from txn.abort()

        bed.run(flow())
        assert files_on(bed) == {"f": (b"x" * 40, 1)} and rows_on(bed) == {}

    def test_first_call_of_a_transaction_may_vote(self):
        """``answered`` 0 (``install_suite``): nothing to have forgotten."""
        bed = self.one_server()
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            vote = yield txn.call("s1", "txn.stage_write", name="f",
                                  data=b"x", version=1, create=True,
                                  prepare=True)
            yield from txn.commit()
            return vote

        assert bed.run(flow()) == VOTE_PREPARED
        assert files_on(bed) == {"f": (b"x", 1)}


def assert_nothing_left(participant, txn_id):
    """No lock held or queued and no scratch entry for ``txn_id``."""
    assert txn_id not in participant._active
    assert participant.locks.locked_resources(txn_id) == set()
    assert txn_id not in participant.locks._waiting_on


class TestReleasingCalls:
    """``release=True``: the call is its transaction's only operation,
    so the participant ends the transaction as the handler returns."""

    def install(self, bed, name="f", data=b"x" * 40, version=1):
        manager = manager_of(bed)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name=name, data=data,
                           version=version, create=True)
            yield from txn.commit()

        bed.run(flow())

    def test_stat_and_read_leave_nothing_and_enrol_nobody(self, bed):
        self.install(bed)
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            txn = manager.begin()
            stat = yield txn.call("s1", "txn.stat", name="f",
                                  read_data=True, release=True)
            assert_nothing_left(participant, txn.txn_id)
            data, version = yield txn.call("s1", "txn.read", name="f",
                                           release=True)
            assert_nothing_left(participant, txn.txn_id)
            return txn, stat, bytes(data), version

        sent = bed.network.messages_sent
        txn, stat, data, version = bed.run(flow())
        assert stat == {"version": 1, "stamp": 0, "data": b"x" * 40}
        assert (data, version) == (b"x" * 40, 1)
        assert txn.participants == set() and txn.attempted == set()
        bed.run(txn.commit())          # owes the server nothing
        bed.settle(5_000.0)
        assert bed.network.messages_sent - sent == 4
        assert txn.txn_id not in participant._finished

    def test_without_the_flag_the_lock_is_held_to_commit(self, bed):
        self.install(bed)
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stat", name="f")
            held = participant.locks.holds(txn.txn_id, "f")
            yield from txn.commit()
            return txn, held

        txn, held = bed.run(flow())
        assert held and txn.participants == {"s1"}
        bed.settle(5_000.0)
        assert_nothing_left(participant, txn.txn_id)

    def test_handler_that_fails_still_releases(self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            txn = manager.begin()
            with pytest.raises(NoSuchFileError):
                yield txn.call("s1", "txn.stat", name="missing",
                               release=True)
            return txn

        txn = bed.run(flow())
        assert_nothing_left(participant, txn.txn_id)

    def test_lock_timeout_leaves_no_queued_request(self):
        bed = Testbed(servers=["s1"], seed=3, lock_timeout=200.0,
                      idle_abort_after=None)
        self.install(bed)
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            writer = manager.begin()
            yield writer.call("s1", "txn.stat", name="f", mode=EXCLUSIVE)
            reader = manager.begin()
            with pytest.raises(LockTimeoutError):
                yield reader.call("s1", "txn.stat", name="f",
                                  release=True)
            assert_nothing_left(participant, reader.txn_id)
            yield from writer.abort()

        bed.run(flow())
        assert participant.locks.holders_of("f") == {}

    def test_prepared_writer_blocks_the_releasing_inquiry(self, bed):
        """The lock is *acquired* exactly as before: a prepared writer
        holds the inquiry until its decision lands, and the inquiry
        then reports the new version."""
        self.install(bed)
        manager = manager_of(bed)

        def flow():
            writer = manager.begin()
            yield writer.call("s1", "txn.stage_write", name="f",
                              data=b"new", version=2)
            yield writer.call("s1", "txn.prepare")
            reader = manager.begin()
            inquiry = reader.call("s1", "txn.stat", name="f",
                                  release=True)
            yield bed.sim.timeout(50.0)
            assert inquiry.pending
            yield writer.call("s1", "txn.commit")
            stat = yield inquiry
            return stat["version"]

        assert bed.run(flow()) == 2


class TestOnePhaseStage:
    """``stage_write(one_phase=True)``: stage and commit in one call."""

    def call(self, bed, txn, **args):
        args.setdefault("name", "f")
        return txn.call("s1", "txn.stage_write", one_phase=True, **args)

    def test_installs_with_no_record_and_finishes_the_transaction(
            self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant
        fs = bed.servers["s1"].server.fs

        def flow():
            txn = manager.begin()
            outcome = yield self.call(bed, txn, data=b"v1", version=1,
                                      create=True,
                                      properties={"stamp": 3})
            return txn, outcome

        sent = bed.network.messages_sent
        txn, outcome = bed.run(flow())
        assert outcome == "committed"
        assert fs.read_file_sync("f") == (b"v1", 1)
        assert fs.stat("f").properties == {"stamp": 3}
        assert fs.list_files() == ["f"] and fs.intentions() == {}
        assert_nothing_left(participant, txn.txn_id)
        assert txn.txn_id in participant._finished
        assert participant.commits == 1 and participant.in_doubt() == []
        # One call, and the coordinator has nobody to prepare or commit.
        assert txn.participants == txn.attempted == txn.staged == set()
        bed.run(txn.commit())
        bed.settle(5_000.0)
        assert bed.network.messages_sent - sent == 2

    def test_only_if_newer_skip_releases_and_tombstones(self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            first = manager.begin()
            yield self.call(bed, first, data=b"v5", version=5, create=True)
            stale = manager.begin()
            outcome = yield self.call(bed, stale, data=b"v3", version=3,
                                      only_if_newer=True, create=True)
            return stale, outcome

        stale, outcome = bed.run(flow())
        assert outcome == "skipped"
        assert bed.servers["s1"].server.fs.read_file_sync("f") == (b"v5", 5)
        assert_nothing_left(participant, stale.txn_id)
        assert stale.txn_id in participant._finished
        assert participant.locks.holders_of("f") == {}

    def test_late_retransmission_is_refused_or_skipped(self, bed):
        """First delivery of a resent request after the install (a new
        call id, so the endpoint's reply cache cannot answer it)."""
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant
        request = dict(name="f", data=b"v2", version=2, create=True,
                       only_if_newer=True, one_phase=True)

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", **request)
            with pytest.raises(TransactionAborted):
                yield manager.endpoint.call(
                    "s1", "txn.stage_write", timeout=1_000.0,
                    txn=str(txn.txn_id), **request)
            assert_nothing_left(participant, txn.txn_id)
            # The tombstone aged out of the LRU (or died with a crash):
            # the request is evaluated again, against the installed copy.
            participant._finished.clear()
            outcome = yield manager.endpoint.call(
                "s1", "txn.stage_write", timeout=1_000.0,
                txn=str(txn.txn_id), **request)
            assert_nothing_left(participant, txn.txn_id)
            return outcome

        assert bed.run(flow()) == "skipped"
        assert bed.servers["s1"].server.fs.read_file_sync("f") == (b"v2", 2)
        assert participant.locks.holders_of("f") == {}

    def test_refused_when_the_transaction_holds_another_intention(
            self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="a", data=b"a",
                           version=1, create=True)
            with pytest.raises(InvalidTransactionState):
                yield self.call(bed, txn, name="b", data=b"b", version=1,
                                create=True)
            # The refusal touched nothing: the two-phase half goes on.
            assert participant.locks.holds(txn.txn_id, "a", EXCLUSIVE)
            assert not participant.locks.holds(txn.txn_id, "b")
            yield from txn.commit()

        bed.run(flow())
        fs = bed.servers["s1"].server.fs
        assert fs.read_file_sync("a") == (b"a", 1)
        assert not fs.exists("b")

    def test_missing_file_without_create_releases(self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def flow():
            txn = manager.begin()
            with pytest.raises(NoSuchFileError):
                yield self.call(bed, txn, data=b"x", version=1)
            return txn

        txn = bed.run(flow())
        assert_nothing_left(participant, txn.txn_id)
        assert participant.locks.holders_of("f") == {}


class TestOnePhaseCrashAtEveryStep:
    """No prepare record, so no in-doubt state: kill the participant
    after every page step of a one-phase install and restart it."""

    OLD = {"f": (b"old-f" * 30, 1)}
    NEW = {"f": (b"new-f" * 50, 2)}
    REQUEST = dict(name="f", data=b"new-f" * 50, version=2,
                   properties={"stamp": 2}, only_if_newer=True,
                   create=True, one_phase=True)

    def start(self, page_size):
        bed = Testbed(servers=["s1"], seed=3, page_io_time=1.0,
                      page_size=page_size, idle_abort_after=None)
        manager = manager_of(bed)

        def setup():
            txn = manager.begin()
            data, version = self.OLD["f"]
            yield txn.call("s1", "txn.stage_write", name="f", data=data,
                           version=version, create=True)
            yield from txn.commit()

        def flow():
            yield manager.begin().call("s1", "txn.stage_write",
                                       **self.REQUEST)

        bed.run(setup())
        return bed, bed.sim.spawn(flow())

    def measure(self, page_size):
        bed, process = self.start(page_size)
        return time_the_update(bed, process, self.NEW)

    @pytest.mark.parametrize("page_size", [128, 512])
    def test_old_or_new_never_in_doubt_then_retry_converges(
            self, page_size):
        start, steps = self.measure(page_size)
        assert steps >= 3  # a data chain, its bucket, the root
        old_runs = new_runs = 0
        for done in range(steps + 1):
            bed, process = self.start(page_size)
            bed.sim.run(until=start + done - 0.5)
            bed.crash("s1")
            bed.restart("s1")
            participant = bed.servers["s1"].participant
            assert participant.in_doubt() == []
            assert participant.locks.holders_of("f") == {}
            files = files_on(bed)
            assert files in (self.OLD, self.NEW) and rows_on(bed) == {}
            assert_pages_balanced(bed.servers["s1"].server.fs)
            if files == self.OLD:
                old_runs += 1
            else:
                new_runs += 1
            # The refresher's next pass is a fresh one-phase call (it
            # can find the first one, still on the wire at the crash,
            # delivered after the restart and already installed).
            outcome = bed.sim.run_until(manager_of(bed).begin().call(
                "s1", "txn.stage_write", **self.REQUEST))
            assert outcome in (("committed", "skipped")
                               if files == self.OLD else ("skipped",))
            assert files_on(bed) == self.NEW
            assert participant.locks.holders_of("f") == {}
        assert old_runs and new_runs


class TestQueuedRequestOfFinishedTransaction:
    def test_parked_inquiry_replies_when_its_transaction_ends(self, bed):
        """A ``txn.stat`` parked behind a writer must answer the moment
        its transaction is finished, not sit out the lock timer."""
        manager = manager_of(bed)
        locks = bed.servers["s1"].participant.locks

        def flow():
            writer = manager.begin()
            yield writer.call("s1", "txn.stage_write", name="f", data=b"w",
                              version=1, create=True)
            reader = manager.begin()
            parked = reader.call("s1", "txn.stat", name="f")
            yield bed.sim.timeout(10.0)
            assert parked.pending
            asked = bed.sim.now
            # The quorum closed elsewhere: the reader is done with s1.
            yield manager.endpoint.call("s1", "txn.abort", timeout=1_000.0,
                                        txn=str(reader.txn_id))
            try:
                yield parked
                outcome = "answered"
            except TransactionAborted:
                outcome = "aborted"
            waited = bed.sim.now - asked
            yield from writer.abort()
            return outcome, waited

        outcome, waited = bed.run(flow())
        assert outcome == "aborted"
        assert waited < 10.0  # two message delays, not the 5 s timer
        bed.settle(10_000.0)
        assert locks.lock_timeouts == 0


class TestIdleSweeper:
    def test_idle_unprepared_transaction_swept(self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def start_and_abandon():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True)
            # ... client walks away without committing.

        bed.run(start_and_abandon())
        assert len(participant._active) == 1
        bed.settle(5_000.0)  # sweeper interval is idle_abort_after/2
        assert len(participant._active) == 0
        assert participant.idle_aborts == 1

    def test_prepared_transaction_never_swept(self, bed):
        manager = manager_of(bed)
        participant = bed.servers["s1"].participant

        def prepare_and_abandon():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=b"x",
                           version=1, create=True)
            yield txn.call("s1", "txn.prepare")

        bed.run(prepare_and_abandon())
        bed.settle(10_000.0)
        assert len(participant._active) == 1
        assert participant.idle_aborts == 0
