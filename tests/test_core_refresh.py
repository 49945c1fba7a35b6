"""Background refresh: convergence, monotonicity, dedup, ablation."""

import pytest

from tests.helpers import triple_config, write_in_quorum
from repro.core import change_configuration
from repro.core.analysis import message_cost
from repro.testbed import Testbed


def versions(bed, suite_name="db"):
    return {name: node.server.fs.stat(f"suite:{suite_name}").version
            for name, node in bed.servers.items()
            if node.server.fs.exists(f"suite:{suite_name}")}


class TestConvergence:
    def test_all_reps_current_after_settle(self, bed):
        suite = bed.install(triple_config(), b"v1")
        for i in range(4):
            bed.run(suite.write(f"v{i + 2}".encode()))
        bed.settle()
        assert set(versions(bed).values()) == {5}

    def test_refresh_counts_reported(self, bed):
        suite = bed.install(triple_config(), b"v1")
        bed.run(write_in_quorum(suite, b"v2"))
        bed.settle()
        assert bed.metrics.counter("refresh.scheduled").value >= 1
        assert bed.metrics.counter("refresh.completed").value >= 1

    def test_weak_reps_refreshed_too(self, bed):
        config = triple_config(votes=(1, 1, 0), r=1, w=2)
        suite = bed.install(config, b"v1")
        bed.run(suite.write(b"v2"))
        bed.settle()
        assert versions(bed)["s3"] == 2

    def test_refresh_recovers_after_target_restart(self, bed):
        suite = bed.install(triple_config(), b"v1")
        suite.refresher.retry_backoff = 200.0
        bed.crash("s3")
        bed.run(write_in_quorum(suite, b"v2"))
        bed.settle(100.0)
        bed.restart("s3")
        bed.settle(10_000.0)
        assert versions(bed)["s3"] == 2


class TestMonotonicity:
    def test_refresh_never_regresses_version(self, bed):
        """A refresh for an old version must not clobber a newer write
        that landed on the target meanwhile (only_if_newer guard)."""
        suite = bed.install(triple_config(), b"v1")
        # Leave rep-3 stale at v1, then immediately write again with a
        # quorum that *includes* rep-3 before the refresh runs.
        suite.refresher.delay = 500.0
        bed.run(write_in_quorum(suite, b"v2"))  # quorum s1+s2 (cheapest)
        bed.crash("s1")
        bed.run(suite.write(b"v3"))            # quorum s2+s3
        bed.restart("s1")
        bed.settle(20_000.0)
        final = versions(bed)
        assert final["s2"] == 3
        assert final["s3"] == 3  # not regressed to 2 by the refresher
        read = bed.run(suite.read())
        assert read.data == b"v3"


class TestDeduplication:
    def test_inflight_refresh_not_duplicated(self, bed):
        suite = bed.install(triple_config(), b"v1")
        # Long enough that the refresh the write schedules is still
        # sitting out its delay across both reads below: each waits 3 s
        # for crashed s1's inquiry to give up, and a read no longer
        # pins s3's shared lock meanwhile, so nothing but the delay
        # keeps the refresh in flight.
        suite.refresher.delay = 20_000.0
        bed.run(write_in_quorum(suite, b"v2"))
        scheduled_before = bed.metrics.counter("refresh.scheduled").value
        # Reads that notice the same stale rep must not re-schedule it.
        bed.crash("s1")
        bed.run(suite.read())
        bed.run(suite.read())
        assert ("db", "rep-3") in suite.refresher._in_flight
        assert bed.metrics.counter("refresh.scheduled").value == \
            scheduled_before
        bed.restart("s1")
        bed.settle(30_000.0)
        assert versions(bed)["s3"] == 2
        assert bed.metrics.counter("refresh.completed").value == \
            scheduled_before


def stamps(bed, suite_name="db"):
    return {name: node.server.fs.stat(
                f"suite:{suite_name}").properties.get("stamp", 0)
            for name, node in bed.servers.items()
            if node.server.fs.exists(f"suite:{suite_name}")}


class TestOneCallInstall:
    """The write hands the refresher what it committed: one one-phase
    call per stale copy, no quorum read, no prepare, no commit."""

    def test_refresh_after_a_write_is_one_call(self, bed):
        # A write() is voted by every voting representative: what it
        # leaves behind is the weak one, s3.
        suite = bed.install(triple_config(votes=(1, 1, 0), r=1, w=2),
                            b"v1")
        costs = message_cost(suite.config)
        before = bed.network.messages_sent
        bed.run(suite.write(b"v2"))
        bed.settle()
        assert bed.network.messages_sent - before == \
            costs["write"] + costs["refresh"] == 10
        assert set(versions(bed).values()) == {2}
        assert bed.metrics.counter("refresh.transactions").value == 1
        participant = bed.servers["s3"].participant
        assert participant.in_doubt() == [] and not participant._active
        assert participant.locks.holders_of("suite:db") == {}

    def test_read_that_finds_a_stale_copy_repairs_it_in_one_call(self):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=7)
        suite = bed.install(triple_config(), b"v1")
        suite.refresher.enabled = False
        bed.run(write_in_quorum(suite, b"v2"))  # s3 left at v1, for good
        suite.refresher.enabled = True
        costs = message_cost(suite.config)
        before = bed.network.messages_sent
        assert bed.run(suite.read()).stale == ["rep-3"]
        bed.settle()
        assert bed.network.messages_sent - before == \
            costs["read"] + costs["refresh"] == 8
        assert versions(bed)["s3"] == 2

    def test_newer_payload_arriving_mid_refresh_is_the_one_that_lands(
            self, bed):
        """Dedup keeps one refresh per copy in flight; what it installs
        is the newest data handed in, not the data it started with."""
        suite = bed.install(triple_config(), b"v1")
        suite.refresher.delay = 500.0
        bed.run(write_in_quorum(suite, b"v2"))  # refresh of s3 pending
        bed.run(write_in_quorum(suite, b"v3"))  # folded into it
        assert bed.metrics.counter("refresh.scheduled").value == 1
        bed.settle()
        assert versions(bed)["s3"] == 3
        assert bed.servers["s3"].server.fs.read_file_sync(
            "suite:db")[0] == b"v3"
        assert bed.metrics.counter("refresh.transactions").value == 1
        assert bed.metrics.counter("refresh.completed").value == 1

    def test_newer_payload_arriving_while_the_call_is_out_reruns(self, bed):
        """The install of v2 is already on the wire when v3 commits:
        the same refresh goes round again with v3, nothing is lost."""
        suite = bed.install(triple_config(), b"v1")
        bed.network.set_latency("client", "s3", 200.0)
        bed.run(write_in_quorum(suite, b"v2"))
        bed.run(write_in_quorum(suite, b"v3"))
        assert versions(bed)["s3"] == 1        # v2 still in flight
        assert bed.metrics.counter("refresh.scheduled").value == 1
        bed.settle()
        assert versions(bed)["s3"] == 3
        assert bed.metrics.counter("refresh.transactions").value == 2
        assert bed.metrics.counter("refresh.completed").value == 1

    def test_target_removed_before_the_install_is_skipped(self, bed):
        suite = bed.install(triple_config(), b"v1")
        suite.refresher.delay = 500.0
        bed.run(write_in_quorum(suite, b"v2"))  # refresh of s3 pending
        shrunk = triple_config(votes=(1, 1), r=1, w=2,
                               latencies=(10.0, 20.0))
        bed.run(change_configuration(suite, shrunk))
        bed.settle()
        # s3's copy was deleted by the reconfiguration and the pending
        # refresh did not put it back.
        assert "s3" not in versions(bed)
        assert bed.metrics.counter("refresh.abandoned").value == 0
        assert bed.metrics.counter("refresh.completed").value == \
            bed.metrics.counter("refresh.scheduled").value

    def test_reconfiguration_before_the_install_never_lowers_a_stamp(
            self):
        """Client a's install of (v2, configuration 1) is still pending
        when client b reconfigures: s3 goes to (v3, configuration 2)
        and a's late call, older on both counts, is skipped."""
        bed = Testbed(servers=["s1", "s2", "s3"], clients=["a", "b"],
                      seed=7)
        config = triple_config()
        writer = bed.install(config, b"v1", client="a")
        other = bed.suite(config, client="b")
        writer.refresher.delay = 500.0
        bed.run(write_in_quorum(writer, b"v2"))  # a's refresh of s3 pending
        applied = []
        node = bed.servers["s3"].server
        update, resolve = node.update, node.resolve

        def tapped_update(puts=(), deletes=()):
            applied.extend((put.version, put.properties["stamp"])
                           for put in puts)
            return update(puts, deletes)

        def tapped_resolve(txn, install, version=None):
            rows = yield from resolve(txn, install, version)
            applied.extend((row.version, row.properties["stamp"])
                           for row in rows if install)
            return rows

        node.update, node.resolve = tapped_update, tapped_resolve
        reweighted = triple_config(votes=(2, 1, 1), r=2, w=3)
        bed.run(change_configuration(other, reweighted))
        bed.settle()
        assert applied == [(3, 2)]
        assert set(versions(bed).values()) == {3}
        assert set(stamps(bed).values()) == {2}
        assert bed.metrics.counter("refresh.abandoned").value == 0

    def test_request_without_data_overrides_a_held_payload(self, bed):
        """A payload-less request (here the spread after this client's
        own reconfiguration) wants the suite's current state: the
        pending refresh drops the older bytes it held and reads."""
        suite = bed.install(triple_config(), b"v1")
        suite.refresher.delay = 500.0
        bed.run(write_in_quorum(suite, b"v2"))  # refresh of s3 pending
        reweighted = triple_config(votes=(2, 1, 1), r=2, w=3)
        bed.run(change_configuration(suite, reweighted))
        assert versions(bed)["s3"] == 1
        bed.settle()
        assert set(versions(bed).values()) == {3}
        assert set(stamps(bed).values()) == {2}

    def test_request_without_data_reads_the_suite_first(self, bed):
        """``cli``, ``force_converge`` and the spread after a
        reconfiguration hold no data: they get the old read-then-write
        refresh, whose read is a strict 2PL quorum read."""
        suite = bed.install(triple_config(), b"v1")
        suite.refresher.enabled = False
        bed.run(write_in_quorum(suite, b"v2"))
        suite.refresher.enabled = True
        costs = message_cost(suite.config)
        gathers = bed.metrics.histogram("suite.quorum_wait").count
        before = bed.network.messages_sent
        suite.refresher.schedule(suite, ["rep-3"], 2)
        bed.settle()
        assert versions(bed)["s3"] == 2
        assert bed.metrics.histogram("suite.quorum_wait").count == \
            gathers + 1
        # The read holds its locks to its commit: inquiry + release
        # round, then the one install call.
        assert bed.network.messages_sent - before == \
            2 * costs["read"] + costs["refresh"]


class TestAblation:
    def test_disabled_refresher_counts_drops(self):
        bed = Testbed(servers=["s1", "s2", "s3"], refresh_enabled=False)
        suite = bed.install(triple_config(), b"v1")
        bed.run(write_in_quorum(suite, b"v2"))
        bed.settle()
        assert bed.metrics.counter("refresh.dropped").value >= 1
        assert versions(bed)["s3"] == 1

    def test_disabled_refresh_still_correct_reads(self):
        """Staleness is a performance problem, never a correctness one:
        with refresh off, reads still return the latest committed data."""
        bed = Testbed(servers=["s1", "s2", "s3"], refresh_enabled=False)
        suite = bed.install(triple_config(), b"v1")
        for i in range(5):
            bed.run(write_in_quorum(suite, f"v{i + 2}".encode()))
        bed.crash("s1")  # push reads onto the staler members
        result = bed.run(suite.read())
        assert result.data == b"v6"
