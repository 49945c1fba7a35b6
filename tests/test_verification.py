"""The history checker itself, then the protocol checked by it."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.helpers import triple_config
from repro.chaos.policy import ChaosPolicy, ChaosVerdict
from repro.errors import ReproError, TransactionAborted
from repro.testbed import Testbed
from repro.verification import (HistoryRecorder, Operation, check_history)


def op(client, kind, start, end, version, data=b""):
    return Operation(client=client, kind=kind, start=start, end=end,
                     version=version, data=data)


class TestCheckerOnSyntheticHistories:
    def test_empty_history_valid(self):
        assert check_history([]) == []

    def test_simple_valid_history(self):
        history = [
            op("a", "write", 0, 1, 2, b"x"),
            op("b", "read", 2, 3, 2, b"x"),
        ]
        assert check_history(history) == []

    def test_duplicate_write_versions_flagged(self):
        history = [
            op("a", "write", 0, 1, 2, b"x"),
            op("b", "write", 0, 1, 2, b"y"),
        ]
        violations = check_history(history)
        assert any(v.rule == "W1" for v in violations)

    def test_read_of_wrong_data_flagged(self):
        history = [
            op("a", "write", 0, 1, 2, b"right"),
            op("b", "read", 2, 3, 2, b"wrong"),
        ]
        assert any(v.rule == "W2" for v in check_history(history))

    def test_read_of_phantom_version_flagged(self):
        history = [op("b", "read", 0, 1, 7, b"ghost")]
        assert any(v.rule == "R2" for v in check_history(history))

    def test_stale_read_after_write_flagged(self):
        history = [
            op("a", "write", 0, 1, 2, b"new"),
            op("b", "read", 5, 6, 1, b""),  # reads the install version
        ]
        assert any(v.rule == "R1" for v in check_history(history))

    def test_version_regression_between_writes_flagged(self):
        history = [
            op("a", "write", 0, 1, 3, b"x"),
            op("b", "write", 5, 6, 2, b"y"),
        ]
        assert any(v.rule == "R1" for v in check_history(history))

    def test_concurrent_operations_unconstrained(self):
        # b starts before a ends: any version order is acceptable.
        history = [
            op("a", "write", 0, 10, 3, b"x"),
            op("b", "read", 5, 6, 1, b""),
        ]
        assert check_history(history) == []

    def test_install_data_respected(self):
        history = [op("b", "read", 0, 1, 1, b"seed")]
        assert check_history(history, install_data=b"seed") == []
        assert check_history(history, install_data=b"other") != []

    def test_operation_validation(self):
        with pytest.raises(ValueError):
            op("a", "mystery", 0, 1, 1)
        with pytest.raises(ValueError):
            op("a", "read", 5, 1, 1)


class TestProtocolUnderChecker:
    def run_workload(self, seed, clients=3, ops_per_client=8,
                     crash=False):
        names = [f"c{i}" for i in range(clients)]
        bed = Testbed(servers=["s1", "s2", "s3"], clients=names,
                      seed=seed)
        config = triple_config()
        history = []
        recorders = []
        first = True
        for name in names:
            if first:
                suite = bed.install(config, b"seed", client=name)
                first = False
            else:
                suite = bed.suite(config, client=name)
            suite.retry_backoff = 120.0
            recorders.append(HistoryRecorder(suite, name, history))

        def client_loop(recorder, index):
            rng = bed.streams.stream(f"verify:{recorder.client}")
            for i in range(ops_per_client):
                try:
                    if rng.random() < 0.5:
                        yield from recorder.read()
                    else:
                        yield from recorder.write(
                            f"{recorder.client}-{i}".encode())
                except ReproError:
                    pass  # blocked ops record nothing: fine
                yield bed.sim.timeout(rng.uniform(0, 40.0))

        def chaos():
            yield bed.sim.timeout(100.0)
            bed.crash("s2")
            yield bed.sim.timeout(300.0)
            bed.restart("s2")

        processes = [bed.sim.spawn(client_loop(recorder, i),
                                   name=f"verify-{i}")
                     for i, recorder in enumerate(recorders)]
        if crash:
            bed.sim.spawn(chaos(), name="chaos")
        bed.sim.run_until(bed.sim.all_of(processes))
        return history

    def test_concurrent_clients_strictly_serializable(self):
        history = self.run_workload(seed=101)
        assert len(history) > 10
        assert check_history(history, install_data=b"seed") == []

    def test_still_serializable_under_crashes(self):
        history = self.run_workload(seed=102, crash=True)
        violations = check_history(history, install_data=b"seed")
        assert violations == []

    @given(st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_seeds_always_serializable(self, seed):
        history = self.run_workload(seed=seed, clients=2,
                                    ops_per_client=6)
        assert check_history(history, install_data=b"seed") == []

    def test_checker_catches_a_broken_protocol(self):
        """Sanity check of the checker itself against a protocol we
        know is broken: the single-representative inquiry client from
        the anomaly suite produces R1 violations."""
        from tests.test_anomalies import SingleRepInquiryClient

        bed = Testbed(servers=["s1", "s2", "s3"], seed=103,
                      refresh_enabled=False)
        config = triple_config()
        good = bed.install(config, b"seed")
        history = []
        good_recorder = HistoryRecorder(good, "good", history)
        bed.run(good_recorder.write(b"v2"))     # quorum {s1, s2}

        broken = SingleRepInquiryClient(
            bed.clients["client"].manager, config, max_attempts=1,
            inquiry_timeout=100.0)
        broken_recorder = HistoryRecorder(broken, "broken", history)
        bed.crash("s1")
        bed.crash("s2")
        bed.run(broken_recorder.read())         # stale read, recorded
        violations = check_history(history, install_data=b"seed")
        assert any(v.rule == "R1" for v in violations)


class NthMessage:
    """Chaos link policy: one scripted verdict for the ``nth`` message
    on one directed link, everything else untouched."""

    def __init__(self, source, destination, nth, verdict):
        self.link = (source, destination)
        self.nth = nth
        self.verdict = verdict
        self.seen = 0

    def filter(self, source, destination):
        if (source, destination) != self.link:
            return None
        self.seen += 1
        return self.verdict if self.seen == self.nth else None


def server_is_clean(node, file_name="suite:db"):
    """No scratch entry, no lock held or queued on the suite's file."""
    return (not node.participant._active
            and node.participant.locks.holders_of(file_name) == {}
            and not node.participant.locks._waiting_on)


class TestNoNewOldInversion:
    """Single-operation reads drop their locks with the reply.  What
    still orders them after a writer is the writer's own exclusive
    lock: once its decision is made every member of its write quorum
    is prepared or applied, so a later read quorum meets a member that
    blocks it or shows it the new version."""

    #: On the writer's link to s2, a write sends stat, the stage that
    #: carries the vote request, and then the commit.
    COMMIT = 3

    def deploy(self, verdict):
        bed = Testbed(servers=["s1", "s2", "s3"],
                      clients=["w", "r1", "r2"], seed=11,
                      call_timeout=300.0)
        config = triple_config()
        history = []
        writer = HistoryRecorder(bed.install(config, b"old", client="w"),
                                 "w", history)
        first = HistoryRecorder(bed.suite(config, client="r1"),
                                "r1", history)
        second = HistoryRecorder(
            bed.suite(config, client="r2", inquiry_timeout=500.0),
            "r2", history)
        # The second reader cannot reach the fast member: its quorum
        # has to be s2 + s3, the slow member and the one left behind.
        bed.network.set_link_down("r2", "s1")
        bed.network.chaos = NthMessage("w", "s2", self.COMMIT, verdict)
        write = bed.sim.spawn(writer.write(b"new"))
        fs = {name: node.server.fs for name, node in bed.servers.items()}
        while fs["s1"].stat("suite:db").version < 2:
            assert bed.sim.step()
        # Decided and applied at s1; s2 prepared, its commit not there.
        assert bed.network.chaos.seen == self.COMMIT
        assert fs["s2"].stat("suite:db").version == 1
        assert not write.triggered
        return bed, history, first, second, write

    def test_commit_to_one_member_delayed(self):
        bed, history, first, second, write = self.deploy(
            ChaosVerdict(delay=400.0))
        seen = bed.run(first.read())
        assert (seen.version, seen.data) == (2, b"new")
        assert seen.served_by == "rep-1"
        started = bed.sim.now
        late = bed.run(second.read())
        assert (late.version, late.data) == (2, b"new")
        assert "rep-2" in late.quorum and "rep-1" not in late.quorum
        assert bed.sim.now - started > 300.0   # sat out the prepared lock
        bed.sim.run_until(write)
        assert check_history(history, install_data=b"old") == []

    def test_member_crashed_and_recovered_in_doubt(self):
        bed, history, first, second, write = self.deploy(
            ChaosVerdict(drop=True))
        bed.crash("s2")
        bed.restart("s2")
        participant = bed.servers["s2"].participant
        assert len(participant.in_doubt()) == 1    # re-locked by recover()
        seen = bed.run(first.read())
        assert (seen.version, seen.data) == (2, b"new")
        late = bed.run(second.read())
        assert (late.version, late.data) == (2, b"new")
        assert "rep-2" in late.quorum
        assert participant.in_doubt() == []        # the retry landed
        bed.sim.run_until(write)
        assert check_history(history, install_data=b"old") == []


class TestConcurrentMixUnderFaults:
    """Four clients mixing ``read()``, blind ``write()`` and
    ``transact(read_in -> write_in)`` over a network that drops,
    delays and duplicates."""

    CLIENTS = ["c0", "c1", "c2", "c3"]

    def run_mix(self, seed, ops_per_client=7):
        bed = Testbed(servers=["s1", "s2", "s3"], clients=self.CLIENTS,
                      seed=seed, call_timeout=400.0, lock_timeout=600.0)
        config = triple_config()
        history, increments = [], []
        suites = {}
        for name in self.CLIENTS:
            suites[name] = (bed.install(config, b"0|seed", client=name)
                            if not suites
                            else bed.suite(config, client=name))
            suites[name].retry_backoff = 60.0
            suites[name].inquiry_timeout = 300.0
            suites[name].max_attempts = 8
        bed.network.chaos = ChaosPolicy(
            streams=bed.streams, drop_probability=0.03,
            delay_probability=0.25, delay_min=1.0, delay_max=40.0,
            duplicate_probability=0.03)

        def increment(recorder, tag):
            """The counter lives in the suite: read it, add one."""
            suite = recorder.target
            start = bed.sim.now
            seen = {}

            def operation(txn):
                current = yield from suite.read_in(txn)
                count = int(current.data.split(b"|")[0])
                seen["read"] = current
                seen["data"] = b"%d|%s" % (count + 1, tag.encode())
                return (yield from suite.write_in(txn, seen["data"]))

            written = yield from suite.transact(operation)
            end = bed.sim.now
            history.append(Operation(recorder.client, "write", start, end,
                                     written.version, seen["data"]))
            increments.append((seen["read"].version, written.version))

        def client_loop(recorder):
            rng = bed.streams.stream(f"mix:{recorder.client}")
            for i in range(ops_per_client):
                tag = f"{recorder.client}-{i}"
                draw = rng.random()
                try:
                    if draw < 0.4:
                        yield from recorder.read()
                    elif draw < 0.6:
                        yield from recorder.write(b"0|" + tag.encode())
                    else:
                        yield from increment(recorder, tag)
                except ReproError:
                    pass  # gave up: nothing committed, nothing recorded
                yield bed.sim.timeout(rng.uniform(0, 30.0))

        recorders = [HistoryRecorder(suites[name], name, history)
                     for name in self.CLIENTS]
        forgotten = self.watch_for_forgotten_calls(bed)
        processes = [bed.sim.spawn(client_loop(recorder))
                     for recorder in recorders]
        bed.sim.run_until(bed.sim.all_of(processes))
        bed.network.chaos = None
        bed.settle(20_000.0)
        # Nobody restarted, so no participant may claim it has.
        assert forgotten == []
        final = bed.run(recorders[0].read())
        return history, increments, final

    @staticmethod
    def watch_for_forgotten_calls(bed):
        """Vote requests refused because the participant remembered
        *some* but not all of the calls it answered — which only a
        restart in mid-transaction can cause."""
        forgotten = []
        for name, node in bed.servers.items():
            participant = node.participant
            check = participant._require_remembered

            def watching(txn_id, answered, participant=participant,
                         check=check, name=name):
                try:
                    check(txn_id, answered)
                except TransactionAborted:
                    if txn_id in participant._active:
                        forgotten.append((name, txn_id, answered))
                    raise

            participant._require_remembered = watching
        return forgotten

    @pytest.mark.parametrize("seed", [201, 202, 203, 204, 205, 206])
    def test_no_violation_and_no_lost_update(self, seed):
        history, increments, final = self.run_mix(seed)
        assert len(history) > 12
        assert check_history(history, install_data=b"0|seed") == []
        # An increment writes the version right after the one it read:
        # nobody slipped in between its read and its write.
        assert increments
        assert all(wrote == read + 1 for read, wrote in increments)
        # Replay the writes in version order: a blind write resets the
        # counter, an increment adds one.  Every payload, and what the
        # suite finally holds, must agree with that.
        count, expected = 0, {}
        writes = sorted((op for op in history if op.kind == "write"),
                        key=lambda op: op.version)
        assert [op.version for op in writes] == \
            list(range(2, 2 + len(writes)))
        for op in writes:
            blind = op.data.startswith(b"0|")
            count = 0 if blind else count + 1
            assert int(op.data.split(b"|")[0]) == count
        assert final.version == 1 + len(writes)
        assert int(final.data.split(b"|")[0]) == count


class TestWhoHoldsWhatAfterARead:
    """Strict 2PL where the caller owns the transaction, nothing held —
    and nothing more sent — after a suite ``read()``."""

    def test_read_in_holds_its_shared_lock_until_commit(self):
        bed = Testbed(servers=["s1", "s2", "s3"], clients=["a", "b"],
                      seed=5)
        config = triple_config()
        reader = bed.install(config, b"v1", client="a")
        writer = bed.suite(config, client="b")
        times = {}

        def operation(txn):
            result = yield from reader.read_in(txn)
            held = [node.participant.locks.holders_of("suite:db")
                    for node in bed.servers.values()]
            assert all(txn.txn_id in holders for holders in held)
            assert txn.participants == {"s1", "s2", "s3"}
            yield bed.sim.timeout(300.0)
            times["commit"] = bed.sim.now
            return result

        def write_meanwhile():
            yield bed.sim.timeout(50.0)
            yield from writer.write(b"v2")
            times["written"] = bed.sim.now

        reading = bed.sim.spawn(reader.transact(operation))
        writing = bed.sim.spawn(write_meanwhile())
        bed.sim.run_until(bed.sim.all_of([reading, writing]))
        assert reading.value.version == 1
        assert times["written"] > times["commit"]

    def test_read_leaves_nothing_and_sends_nothing_more(self, bed):
        suite = bed.install(triple_config(), b"v1")
        bed.settle()
        sent = bed.network.messages_sent
        holder = {}
        begin = suite.manager.begin

        def remembering():
            holder["txn"] = begin()
            return holder["txn"]

        suite.manager.begin = remembering
        bed.run(suite.read())
        # The reply is the release: checked *before* letting time pass.
        assert all(server_is_clean(node) for node in bed.servers.values())
        bed.settle()
        assert bed.network.messages_sent - sent == 6
        assert holder["txn"].participants == set()
        assert holder["txn"].attempted == set()

    def test_inquiry_served_after_the_quorum_closed(self, bed):
        suite = bed.install(triple_config(), b"v1")
        bed.settle()
        bed.network.set_latency("client", "s3", 40.0)
        sent = bed.network.messages_sent
        started = bed.sim.now
        result = bed.run(suite.read())
        assert bed.sim.now - started < 10.0 and "rep-3" not in result.quorum
        bed.settle()                       # s3 answers into the void
        assert bed.network.messages_sent - sent == 6
        assert all(server_is_clean(node) for node in bed.servers.values())

    def test_current_version_is_one_round_too(self, bed):
        suite = bed.install(triple_config(), b"v1")
        bed.settle()
        sent = bed.network.messages_sent
        assert bed.run(suite.current_version()) == 1
        assert all(server_is_clean(node) for node in bed.servers.values())
        bed.settle()
        assert bed.network.messages_sent - sent == 6

    def test_handler_dying_on_a_missing_file_or_a_lock_timeout(self):
        bed = Testbed(servers=["s1", "s2", "s3"], clients=["a", "b"],
                      seed=5, lock_timeout=150.0)
        config = triple_config()
        suite = bed.install(config, b"v1", client="a")
        suite.max_attempts = 1
        blocker = bed.clients["b"].manager.begin()

        def strand():
            # s2's copy is gone and s3's is exclusively locked by a
            # transaction that never ends.
            gone = bed.clients["b"].manager.begin()
            yield gone.call("s2", "txn.stage_delete", name="suite:db")
            yield from gone.commit()
            yield blocker.call("s3", "txn.stat", name="suite:db",
                               mode="X")

        bed.run(strand())
        with pytest.raises(ReproError):
            bed.run(suite.read())
        bed.settle(1_000.0)
        locks = bed.servers["s3"].participant.locks
        assert locks.lock_timeouts == 1
        assert set(locks.holders_of("suite:db")) == {blocker.txn_id}
        assert not locks._waiting_on
        assert set(bed.servers["s3"].participant._active) == \
            {blocker.txn_id}
        assert server_is_clean(bed.servers["s1"])
        assert server_is_clean(bed.servers["s2"])

    def test_server_crashed_mid_handler(self):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=5,
                      page_io_time=20.0)
        suite = bed.install(triple_config(), b"v1" * 600)
        bed.settle()
        reading = bed.sim.spawn(suite.read())
        bed.sim.run(until=bed.sim.now + 10.0)   # s1 is reading pages
        assert bed.servers["s1"].participant._active
        bed.crash("s1")
        bed.restart("s1")
        assert server_is_clean(bed.servers["s1"])
        # The inquiry is retransmitted and the restarted s1 serves it.
        result = bed.sim.run_until(reading)
        assert (result.version, result.data) == (1, b"v1" * 600)
        bed.settle()
        assert all(server_is_clean(node) for node in bed.servers.values())


class TestFallbackReadReportsWhatItFetched:
    def test_write_between_inquiry_and_fallback_fetch(self):
        """The piggyback target is stale, so the data comes by a second
        trip — and a write commits before that trip arrives.  The
        result must pair the bytes with the version they belong to."""
        bed = Testbed(servers=["s1", "s2", "s3"], clients=["r", "w"],
                      seed=9, refresh_enabled=False)
        config = triple_config()
        history = []
        writer = HistoryRecorder(bed.install(config, b"one", client="w"),
                                 "w", history)
        reader = HistoryRecorder(bed.suite(config, client="r"), "r",
                                 history)
        bed.crash("s1")
        bed.run(writer.write(b"two"))          # s2 + s3; s1 stays at v1
        bed.restart("s1")
        # On r -> s2 the read sends its inquiry, then the fallback
        # fetch: hold the fetch back while the next write commits.
        bed.network.chaos = NthMessage("r", "s2", 2,
                                       ChaosVerdict(delay=300.0))

        def write_meanwhile():
            yield bed.sim.timeout(20.0)
            yield from writer.write(b"three")

        reading = bed.sim.spawn(reader.read())
        writing = bed.sim.spawn(write_meanwhile())
        bed.sim.run_until(bed.sim.all_of([reading, writing]))
        result = reading.value
        assert result.served_by == "rep-2"
        assert result.observed == {"rep-1": 1, "rep-2": 2, "rep-3": 2}
        assert (result.version, result.data) == (3, b"three")
        assert set(result.stale) == {"rep-1", "rep-2", "rep-3"}
        assert bed.metrics.counter("suite.read_fallback").value == 1
        assert check_history(history, install_data=b"one") == []
