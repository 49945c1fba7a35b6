"""The history checker itself, then the protocol checked by it."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.helpers import triple_config
from repro.chaos.policy import ChaosPolicy, ChaosVerdict
from repro.errors import ReproError, TransactionAborted
from repro.testbed import Testbed
from repro.verification import (HistoryRecorder, OpRecord, check_history,
                                history_from_json, history_to_json)


def op(index, kind, start, end, version, tag=""):
    return OpRecord(index=index, kind=kind, ok=True, started=start,
                    finished=end, version=version, tag=tag)


def read(index, version, tag=None, observed=None, ok=True):
    return OpRecord(index=index, kind="read", ok=ok, started=float(index),
                    finished=float(index) + 1.0, version=version, tag=tag,
                    observed=observed or {})


def write(index, version, tag=None, observed=None, ok=True):
    return OpRecord(index=index, kind="write", ok=ok,
                    started=float(index), finished=float(index) + 1.0,
                    version=version, tag=tag, observed=observed or {})


def rules(history, **kwargs):
    return {v.rule for v in check_history(history, **kwargs).violations}


class TestCheckerOnSyntheticHistories:
    def test_empty_history_valid(self):
        assert check_history([]).ok

    def test_simple_valid_history(self):
        history = [
            op(0, "write", 0, 1, 2, "x"),
            op(1, "read", 2, 3, 2, "x"),
        ]
        assert check_history(history).violations == []

    def test_duplicate_write_versions_flagged(self):
        history = [
            op(0, "write", 0, 1, 2, "x"),
            op(1, "write", 0, 1, 2, "y"),
        ]
        assert "unique-version" in rules(history)

    def test_read_of_wrong_data_flagged(self):
        history = [
            op(0, "write", 0, 1, 2, "right"),
            op(1, "read", 2, 3, 2, "wrong"),
        ]
        assert "version-payload" in rules(history)

    def test_read_of_phantom_version_flagged(self):
        history = [op(0, "read", 0, 1, 7, "ghost")]
        assert "phantom-read" in rules(history)

    def test_stale_read_after_write_flagged(self):
        history = [
            op(0, "write", 0, 1, 2, "new"),
            op(1, "read", 5, 6, 1, ""),  # reads the install version
        ]
        assert "real-time" in rules(history)

    def test_version_regression_between_writes_flagged(self):
        history = [
            op(0, "write", 0, 1, 3, "x"),
            op(1, "write", 5, 6, 2, "y"),
        ]
        assert "real-time" in rules(history)

    def test_concurrent_operations_unconstrained(self):
        # b starts before a ends: any version order is acceptable.
        history = [
            op(0, "write", 0, 10, 3, "x"),
            op(1, "read", 5, 6, 1, ""),
        ]
        assert check_history(history).violations == []

    def test_install_data_respected(self):
        history = [op(0, "read", 0, 1, 1, "seed")]
        assert check_history(history, initial_tag="seed").ok
        assert not check_history(history, initial_tag="other").ok

    def test_operation_validation(self):
        with pytest.raises(ValueError):
            op(0, "mystery", 0, 1, 1)
        with pytest.raises(ValueError):
            op(0, "read", 5, 1, 1)
        with pytest.raises(ValueError):
            op(0, "read", 0, 1, None)


class TestCheckHistory:
    """One sequential client's history: every rule trips on the
    histories it should."""

    def test_clean_history_is_ok(self):
        history = [
            read(0, 1, tag="init"),
            write(1, 2, tag="a", observed={"rep-1": 1, "rep-2": 1}),
            read(2, 2, tag="a", observed={"rep-1": 2, "rep-3": 1}),
            write(3, 3, tag="b"),
            read(4, 3, tag="b"),
        ]
        report = check_history(history, initial_version=1,
                               initial_tag="init")
        assert report.ok
        assert report.committed_writes == 2
        assert report.successful_reads == 3
        assert report.final_version == 3

    def test_stale_read_is_flagged(self):
        history = [write(0, 2, tag="a"), read(1, 1, tag="init")]
        report = check_history(history)
        assert not report.ok
        assert report.violations[0].rule == "real-time"

    def test_wrong_payload_at_right_version_is_flagged(self):
        history = [write(0, 2, tag="a"), read(1, 2, tag="zzz")]
        report = check_history(history)
        assert [v.rule for v in report.violations] == ["version-payload"]

    def test_duplicate_committed_version_is_flagged(self):
        history = [write(0, 2, tag="a"), write(1, 2, tag="b")]
        report = check_history(history)
        rules = {v.rule for v in report.violations}
        assert "unique-version" in rules and "real-time" in rules

    def test_version_going_backwards_is_flagged(self):
        history = [write(0, 5, tag="a"), write(1, 3, tag="b")]
        report = check_history(history)
        assert any(v.rule == "real-time"
                   for v in report.violations)

    def test_rep_version_regression_is_flagged_even_on_failed_ops(self):
        history = [
            read(0, 1, observed={"rep-1": 4}),
            read(1, None, ok=False, observed={"rep-1": 2}),
        ]
        report = check_history(history, initial_version=1)
        violations = [v for v in report.violations
                      if v.rule == "rep-monotonic"]
        assert len(violations) == 1 and violations[0].index == 1

    def test_failed_ops_are_counted_but_not_judged(self):
        history = [
            write(0, None, tag="lost", ok=False),
            read(1, 1, tag="init"),
        ]
        report = check_history(history, initial_version=1,
                               initial_tag="init")
        assert report.ok
        assert report.failed_ops == 1

    def test_initial_version_collision_is_flagged(self):
        # install_suite leaves version 1; a "committed" write claiming
        # version 1 again must trip unique-version.
        report = check_history([write(0, 1, tag="a")], initial_version=1)
        assert any(v.rule == "unique-version"
                   for v in report.violations)

    def test_summary_mentions_violations(self):
        report = check_history([write(0, 2), write(1, 2)])
        assert "VIOLATION" in report.summary()
        assert check_history([]).summary().startswith("OK")


class TestHistorySerialisation:
    def test_round_trip(self):
        history = [
            write(0, 2, tag="a", observed={"rep-1": 1}),
            read(1, 2, tag="a"),
            OpRecord(index=2, kind="read", ok=False, started=2.0,
                     finished=3.0, error="RpcTimeout", attempts=4),
        ]
        restored = history_from_json(history_to_json(history))
        assert restored == history


def pairwise_flags(history, initial_version=1):
    """The real-time and rep-monotonic rules straight from their
    definition, over every ordered pair of operations."""

    def precedes(a, b, pa, pb):
        if a.finished > b.started:
            return False
        if a.started == a.finished == b.started == b.finished:
            return pa < pb      # two instants at one time: record order
        return True

    flagged = set()
    for pb, b in enumerate(history):
        if b.ok and (b.version < initial_version or (
                b.kind == "write" and b.version == initial_version)):
            flagged.add((b.index, "real-time"))
        for pa, a in enumerate(history):
            if pa == pb or not precedes(a, b, pa, pb):
                continue
            if a.ok and b.ok and (b.version < a.version or (
                    b.kind == "write" and b.version == a.version)):
                flagged.add((b.index, "real-time"))
            if any(b.observed.get(rep, seen) < seen
                   for rep, seen in a.observed.items()):
                flagged.add((b.index, "rep-monotonic"))
    return flagged


@st.composite
def concurrent_histories(draw):
    """Small clocks and versions, so ties, instants and overlaps are
    common; some operations fail."""
    history = []
    for index in range(draw(st.integers(min_value=0, max_value=24))):
        started = float(draw(st.integers(min_value=0, max_value=12)))
        ok = draw(st.integers(min_value=0, max_value=4)) > 0
        history.append(OpRecord(
            index=index,
            kind=draw(st.sampled_from(["read", "write"])), ok=ok,
            started=started,
            finished=started + draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
            version=draw(st.integers(min_value=0, max_value=5))
            if ok else None,
            observed=draw(st.dictionaries(
                st.sampled_from(["rep-1", "rep-2", "rep-3"]),
                st.integers(min_value=0, max_value=5), max_size=3))))
    return history


class TestRealTimeSweep:
    """The checker orders operations by one sort-and-sweep; it must flag
    exactly the operations the pairwise definition flags."""

    @given(concurrent_histories())
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_the_pairwise_definition(self, history):
        swept = {(v.index, v.rule)
                 for v in check_history(history).violations
                 if v.rule in ("real-time", "rep-monotonic")}
        assert swept == pairwise_flags(history)

    def test_five_thousand_overlapping_operations(self):
        """Each op overlaps the next; reads return the newest write so
        far.  Pairwise, this history is ~12.5 M comparisons."""
        history, version = [], 1
        for index in range(5_000):
            kind = "write" if index % 3 == 0 else "read"
            version += kind == "write"
            history.append(op(index, kind, float(index), index + 1.5,
                              version, f"v{version}"))
        assert check_history(history, initial_tag="v1").ok
        stale = history[4_000]
        history[4_000] = op(stale.index, "read", stale.started,
                            stale.finished, stale.version - 10,
                            f"v{stale.version - 10}")
        report = check_history(history, initial_tag="v1")
        assert [(v.index, v.rule) for v in report.violations] == \
            [(4_000, "real-time")]


class TestProtocolUnderChecker:
    def run_workload(self, seed, clients=3, ops_per_client=8,
                     crash=False):
        names = [f"c{i}" for i in range(clients)]
        bed = Testbed(servers=["s1", "s2", "s3"], clients=names,
                      seed=seed)
        config = triple_config()
        history = []
        recorders = {}
        for name in names:
            if not recorders:
                suite = bed.install(config, b"seed", client=name)
            else:
                suite = bed.suite(config, client=name)
            suite.retry_backoff = 120.0
            recorders[name] = HistoryRecorder(suite, history)

        def client_loop(name, recorder):
            rng = bed.streams.stream(f"verify:{name}")
            for i in range(ops_per_client):
                try:
                    if rng.random() < 0.5:
                        yield from recorder.read()
                    else:
                        yield from recorder.write(f"{name}-{i}".encode())
                except ReproError:
                    pass  # blocked ops are recorded as failed: fine
                yield bed.sim.timeout(rng.uniform(0, 40.0))

        def chaos():
            yield bed.sim.timeout(100.0)
            bed.crash("s2")
            yield bed.sim.timeout(300.0)
            bed.restart("s2")

        processes = [bed.sim.spawn(client_loop(name, recorder),
                                   name=f"verify-{i}")
                     for i, (name, recorder)
                     in enumerate(recorders.items())]
        if crash:
            bed.sim.spawn(chaos(), name="chaos")
        bed.sim.run_until(bed.sim.all_of(processes))
        return history

    def test_concurrent_clients_strictly_serializable(self):
        history = self.run_workload(seed=101)
        assert sum(op.ok for op in history) > 10
        assert check_history(history, initial_tag="seed").violations == []

    def test_still_serializable_under_crashes(self):
        history = self.run_workload(seed=102, crash=True)
        report = check_history(history, initial_tag="seed")
        assert report.violations == []

    @given(st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_seeds_always_serializable(self, seed):
        history = self.run_workload(seed=seed, clients=2,
                                    ops_per_client=6)
        assert check_history(history, initial_tag="seed").violations == []

    def test_checker_catches_a_broken_protocol(self):
        """Sanity check of the checker itself against a protocol we
        know is broken: the single-representative inquiry client from
        the anomaly suite produces real-time violations."""
        from tests.test_anomalies import SingleRepInquiryClient

        bed = Testbed(servers=["s1", "s2", "s3"], seed=103,
                      refresh_enabled=False)
        config = triple_config()
        good = bed.install(config, b"seed")
        history = []
        good_recorder = HistoryRecorder(good, history)
        bed.crash("s3")
        bed.run(good_recorder.write(b"v2"))     # voted by {s1, s2}

        broken = SingleRepInquiryClient(
            bed.clients["client"].manager, config, max_attempts=1,
            inquiry_timeout=100.0)
        broken_recorder = HistoryRecorder(broken, history)
        bed.crash("s1")
        bed.crash("s2")
        bed.restart("s3")
        bed.run(broken_recorder.read())         # stale read, recorded
        violations = check_history(history, initial_tag="seed").violations
        assert any(v.rule == "real-time" for v in violations)


class NthMessage:
    """Chaos link policy: one scripted verdict for the ``nth`` message
    on one directed link, every message between a ``cut`` pair dropped
    (both directions), everything else untouched."""

    def __init__(self, source, destination, nth, verdict, cut=()):
        self.link = (source, destination)
        self.nth = nth
        self.verdict = verdict
        self.seen = 0
        self.cut = {link for a, b in cut for link in ((a, b), (b, a))}

    def filter(self, source, destination):
        if (source, destination) in self.cut:
            return ChaosVerdict(drop=True)
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

    #: On the writer's link to s2, a write sends the stage that carries
    #: the inquiry and the vote request, and then the commit.
    COMMIT = 2

    def deploy(self, verdict):
        bed = Testbed(servers=["s1", "s2", "s3"],
                      clients=["w", "r1", "r2"], seed=11,
                      call_timeout=300.0)
        config = triple_config()
        history = []
        writer = HistoryRecorder(bed.install(config, b"old", client="w"),
                                 history)
        first = HistoryRecorder(bed.suite(config, client="r1"), history)
        second = HistoryRecorder(
            bed.suite(config, client="r2", inquiry_timeout=500.0),
            history)
        # The second reader cannot reach the fast member: its quorum
        # has to be s2 + s3, the slow member and the one left behind.
        bed.network.chaos = NthMessage("w", "s2", self.COMMIT, verdict,
                                       cut=[("r2", "s1")])
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
        assert check_history(history, initial_tag="old").violations == []

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
        assert check_history(history, initial_tag="old").violations == []


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
            history.append(OpRecord(
                index=len(history), kind="write", ok=True, started=start,
                finished=bed.sim.now, version=written.version,
                tag=seen["data"].decode("latin-1")))
            increments.append((seen["read"].version, written.version))

        def client_loop(name, recorder):
            rng = bed.streams.stream(f"mix:{name}")
            for i in range(ops_per_client):
                tag = f"{name}-{i}"
                draw = rng.random()
                try:
                    if draw < 0.4:
                        yield from recorder.read()
                    elif draw < 0.6:
                        yield from recorder.write(b"0|" + tag.encode())
                    else:
                        yield from increment(recorder, tag)
                except ReproError:
                    pass  # gave up: nothing committed
                yield bed.sim.timeout(rng.uniform(0, 30.0))

        recorders = {name: HistoryRecorder(suites[name], history)
                     for name in self.CLIENTS}
        forgotten = self.watch_for_forgotten_calls(bed)
        processes = [bed.sim.spawn(client_loop(name, recorder))
                     for name, recorder in recorders.items()]
        bed.sim.run_until(bed.sim.all_of(processes))
        bed.network.chaos = None
        bed.settle(20_000.0)
        # Nobody restarted, so no participant may claim it has.
        assert forgotten == []
        final = bed.run(recorders[self.CLIENTS[0]].read())
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
        assert sum(op.ok for op in history) > 12
        assert check_history(history, initial_tag="0|seed").violations == []
        # An increment writes the version right after the one it read:
        # nobody slipped in between its read and its write.
        assert increments
        assert all(wrote == read + 1 for read, wrote in increments)
        # Replay the writes in version order: a blind write resets the
        # counter, an increment adds one.  Every payload, and what the
        # suite finally holds, must agree with that.
        count, expected = 0, {}
        writes = sorted((op for op in history
                         if op.kind == "write" and op.ok),
                        key=lambda op: op.version)
        assert [op.version for op in writes] == \
            list(range(2, 2 + len(writes)))
        for op in writes:
            blind = op.tag.startswith("0|")
            count = 0 if blind else count + 1
            assert int(op.tag.split("|")[0]) == count
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
                                 history)
        reader = HistoryRecorder(bed.suite(config, client="r"), history)
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
        assert check_history(history, initial_tag="one").violations == []
