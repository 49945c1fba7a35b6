"""The file-suite protocol: reads, writes, weak representatives,
staleness, refresh, retries and failure behaviour."""

import pytest

from tests.helpers import triple_config, write_in_quorum
from repro.core import Representative, SuiteConfiguration
from repro.errors import QuorumUnavailableError, ReproError
from repro.testbed import Testbed


def fs_version(bed, server, suite_name="db"):
    return bed.servers[server].server.fs.stat(f"suite:{suite_name}").version


class TestInstall:
    def test_install_places_every_representative(self, bed):
        config = triple_config(votes=(1, 1, 0))
        bed.install(config, b"seed")
        for server in ("s1", "s2", "s3"):
            fs = bed.servers[server].server.fs
            assert fs.read_file_sync("suite:db") == (b"seed", 1)
            assert fs.stat("suite:db").properties["stamp"] == 1

    def test_install_requires_all_representatives(self, bed):
        bed.crash("s3")
        with pytest.raises(ReproError):
            bed.install(triple_config(), b"seed")


class TestReadWrite:
    def test_round_trip(self, bed):
        suite = bed.install(triple_config(), b"v1")
        result = bed.run(suite.read())
        assert result.data == b"v1"
        assert result.version == 1

    def test_write_bumps_version(self, bed):
        suite = bed.install(triple_config(), b"v1")
        write = bed.run(suite.write(b"v2"))
        assert write.version == 2
        read = bed.run(suite.read())
        assert (read.data, read.version) == (b"v2", 2)

    def test_write_touches_exactly_a_quorum(self, bed):
        suite = bed.install(triple_config(), b"v1")
        write = bed.run(write_in_quorum(suite, b"v2"))
        assert len(write.quorum) == 2
        assert len(write.stale) == 1

    def test_write_prefers_cheap_quorum(self, bed):
        # latencies 10, 20, 30 → quorum should be reps 1 and 2
        suite = bed.install(triple_config(), b"v1")
        write = bed.run(write_in_quorum(suite, b"v2"))
        assert write.quorum == ["rep-1", "rep-2"]

    def test_suite_write_is_voted_by_every_voting_representative(self):
        """A ``write()`` stages at every voting representative the rule
        polls; the first ``w`` votes close the gather and every voter
        commits the number: only the weak representative is left for
        the refresher."""
        bed = Testbed(servers=["s1", "s2", "s3", "s4"], seed=7)
        suite = bed.install(triple_config(votes=(1, 1, 1, 0), w=2,
                                          latencies=(10.0, 20.0, 30.0,
                                                     5.0)), b"v1")
        write = bed.run(suite.write(b"v2"))
        bed.settle()
        assert write.version == 2
        assert write.quorum == ["rep-1", "rep-2", "rep-3"]
        assert write.stale == ["rep-4"]          # weak: refreshed
        assert sorted(write.observed) == ["rep-1", "rep-2"]
        assert {server: fs_version(bed, server)
                for server in ("s1", "s2", "s3", "s4")} == \
            {"s1": 2, "s2": 2, "s3": 2, "s4": 2}

    def test_read_served_by_cheapest_current(self, bed):
        suite = bed.install(triple_config(), b"v1")
        result = bed.run(suite.read())
        assert result.served_by == "rep-1"

    def test_current_version_inquiry(self, bed):
        suite = bed.install(triple_config(), b"v1")
        bed.run(suite.write(b"v2"))
        assert bed.run(suite.current_version()) == 2

    def test_sequential_writes_monotonic(self, bed):
        suite = bed.install(triple_config(), b"v0")
        for i in range(5):
            result = bed.run(suite.write(f"v{i + 1}".encode()))
            assert result.version == i + 2

    def test_metrics_recorded(self, bed):
        suite = bed.install(triple_config(), b"v1")
        bed.run(suite.read())
        bed.run(suite.write(b"v2"))
        assert bed.metrics.counter("suite.reads").value == 1
        assert bed.metrics.counter("suite.writes").value == 1
        assert bed.metrics.histogram("suite.read_latency").count == 1


class TestStaleness:
    def test_read_quorum_sees_newest_version(self, bed):
        """After a write to {s1, s2}, a read whose quorum includes a
        stale rep must still return the new data."""
        suite = bed.install(triple_config(), b"old")
        bed.run(write_in_quorum(suite, b"new"))  # quorum s1+s2; s3 stale
        # Force the read to consult s3 by crashing s1.
        bed.crash("s1")
        result = bed.run(suite.read())
        assert result.data == b"new"
        assert result.version == 2

    def test_background_refresh_catches_up_stale_rep(self, bed):
        suite = bed.install(triple_config(), b"old")
        bed.run(write_in_quorum(suite, b"new"))
        bed.settle()
        assert fs_version(bed, "s3") == 2

    def test_refresh_disabled_leaves_stale(self):
        bed = Testbed(servers=["s1", "s2", "s3"], refresh_enabled=False)
        suite = bed.install(triple_config(), b"old")
        bed.run(write_in_quorum(suite, b"new"))
        bed.settle()
        assert fs_version(bed, "s3") == 1
        assert bed.metrics.counter("refresh.dropped").value >= 1

    def test_read_notes_stale_reps(self, bed):
        suite = bed.install(triple_config(), b"old")
        suite.refresher.enabled = False
        bed.run(write_in_quorum(suite, b"new"))  # s3 left stale
        bed.crash("s1")                  # force s3 into the read quorum
        result = bed.run(suite.read())
        assert result.stale == ["rep-3"]


class TestWeakRepresentatives:
    def weak_config(self):
        # rep-1 holds the only vote; rep-2/rep-3 are fast weak caches.
        return triple_config(votes=(1, 0, 0), r=1, w=1,
                             latencies=(50.0, 1.0, 2.0))

    def test_current_weak_rep_serves_read(self, bed):
        suite = bed.install(self.weak_config(), b"cached")
        result = bed.run(suite.read())
        assert result.served_by == "rep-2"
        assert bed.metrics.counter("suite.weak_reads").value == 1

    def test_stale_weak_rep_not_used(self, bed):
        suite = bed.install(self.weak_config(), b"v1")
        suite.refresher.enabled = False
        bed.run(suite.write(b"v2"))  # quorum = rep-1 only
        result = bed.run(suite.read())
        assert result.served_by == "rep-1"
        assert result.data == b"v2"

    def test_weak_rep_refreshed_then_serves(self, bed):
        suite = bed.install(self.weak_config(), b"v1")
        bed.run(suite.write(b"v2"))
        bed.settle()
        result = bed.run(suite.read())
        assert result.served_by == "rep-2"
        assert result.data == b"v2"

    def test_weak_reps_never_in_write_quorum(self, bed):
        suite = bed.install(self.weak_config(), b"v1")
        write = bed.run(suite.write(b"v2"))
        assert write.quorum == ["rep-1"]

    def test_read_survives_all_weak_reps_down(self, bed):
        suite = bed.install(self.weak_config(), b"v1")
        bed.crash("s2")
        bed.crash("s3")
        result = bed.run(suite.read())
        assert result.data == b"v1"
        assert result.served_by == "rep-1"


class TestAvailability:
    def test_read_succeeds_with_one_server_down(self, bed):
        suite = bed.install(triple_config(), b"v1")
        bed.crash("s3")
        assert bed.run(suite.read()).data == b"v1"

    def test_write_succeeds_with_one_server_down(self, bed):
        suite = bed.install(triple_config(), b"v1")
        bed.crash("s1")
        result = bed.run(suite.write(b"v2"))
        assert sorted(result.quorum) == ["rep-2", "rep-3"]

    def test_read_blocks_below_quorum(self, bed):
        config = triple_config()
        suite = bed.install(config, b"v1")
        suite.max_attempts = 1
        bed.crash("s2")
        bed.crash("s3")
        with pytest.raises(QuorumUnavailableError):
            bed.run(suite.read())
        assert bed.metrics.counter("suite.quorum_failures").value >= 1

    def test_write_blocks_below_quorum(self, bed):
        suite = bed.install(triple_config(), b"v1")
        suite.max_attempts = 1
        bed.crash("s1")
        bed.crash("s2")
        with pytest.raises(QuorumUnavailableError):
            bed.run(suite.write(b"v2"))

    def test_retry_succeeds_after_restart(self, bed):
        suite = bed.install(triple_config(), b"v1")
        suite.retry_backoff = 400.0
        bed.crash("s2")
        bed.crash("s3")

        def heal():
            yield bed.sim.timeout(300.0)
            bed.restart("s2")

        bed.sim.spawn(heal(), name="healer")
        start = bed.sim.now
        result = bed.run(suite.read())
        assert result.data == b"v1"
        # The operation could not finish before the restart at +300ms —
        # it got there either by transaction retries or by transport
        # retransmission of the inquiry.
        assert bed.sim.now - start >= 300.0

    def test_partition_majority_side_operates(self, bed):
        suite = bed.install(triple_config(), b"v1")
        bed.partition([["client", "s1", "s2"], ["s3"]])
        assert bed.run(suite.write(b"v2")).version == 2
        assert bed.run(suite.read()).data == b"v2"

    def test_partition_minority_side_blocks(self, bed):
        suite = bed.install(triple_config(), b"v1")
        suite.max_attempts = 1
        bed.partition([["client", "s3"], ["s1", "s2"]])
        with pytest.raises(QuorumUnavailableError):
            bed.run(suite.write(b"v2"))

    def test_no_split_brain_across_partition(self, bed):
        """Writes on the majority side; after healing, a reader that can
        only reach the old minority plus one majority member still sees
        the latest version."""
        suite = bed.install(triple_config(), b"v1")
        suite.refresher.enabled = False
        bed.partition([["client", "s1", "s2"], ["s3"]])
        bed.run(suite.write(b"v2"))
        bed.heal()
        bed.crash("s1")  # force quorum {s2, s3}
        result = bed.run(suite.read())
        assert result.data == b"v2"


class TestConcurrency:
    def test_two_writers_serialize(self, bed):
        bed.add_client("writer2")
        config = triple_config()
        suite_a = bed.install(config, b"v0")
        suite_b = bed.suite(config, client="writer2")

        def race():
            pa = bed.sim.spawn(suite_a.write(b"from-a"), name="wa")
            pb = bed.sim.spawn(suite_b.write(b"from-b"), name="wb")
            results = yield bed.sim.all_of([pa, pb])
            return results

        first, second = bed.run(race())
        assert {first.version, second.version} == {2, 3}
        final = bed.run(suite_a.read())
        assert final.version == 3
        assert final.data in (b"from-a", b"from-b")

    def test_reader_never_sees_torn_write(self, bed):
        bed.add_client("reader")
        config = triple_config()
        writer = bed.install(config, b"A" * 1000)
        reader = bed.suite(config, client="reader")
        observed = []

        def read_loop():
            for _ in range(20):
                result = yield from reader.read()
                observed.append(result.data)
                yield bed.sim.timeout(3.0)

        def write_loop():
            for i in range(10):
                payload = (b"A" if i % 2 == 0 else b"B") * 1000
                yield from writer.write(payload)

        rp = bed.sim.spawn(read_loop(), name="reads")
        wp = bed.sim.spawn(write_loop(), name="writes")
        bed.run_both = bed.sim.all_of([rp, wp])
        bed.sim.run_until(bed.run_both)
        for data in observed:
            assert data in (b"A" * 1000, b"B" * 1000)

    def test_versions_strictly_increase_across_clients(self, bed):
        bed.add_client("other")
        config = triple_config()
        suite_a = bed.install(config, b"x")
        suite_b = bed.suite(config, client="other")
        versions = []

        def interleave():
            for i in range(6):
                suite = suite_a if i % 2 == 0 else suite_b
                result = yield from suite.write(f"w{i}".encode())
                versions.append(result.version)

        bed.run(interleave())
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)


class TestDeleteSuite:
    def test_removes_every_copy(self, bed):
        from repro.core import delete_suite

        config = triple_config()
        bed.install(config, b"doomed")
        removed = bed.run(delete_suite(
            bed.clients["client"].manager, config))
        assert sorted(removed) == ["rep-1", "rep-2", "rep-3"]
        for node in bed.servers.values():
            assert not node.server.fs.exists("suite:db")

    def test_best_effort_with_server_down(self, bed):
        from repro.core import delete_suite

        config = triple_config()
        bed.install(config, b"doomed")
        bed.crash("s3")
        removed = bed.run(delete_suite(
            bed.clients["client"].manager, config))
        assert sorted(removed) == ["rep-1", "rep-2"]
        assert not bed.servers["s1"].server.fs.exists("suite:db")

    def test_strict_mode_aborts_on_unreachable(self, bed):
        from repro.core import delete_suite
        from repro.errors import ReproError

        config = triple_config()
        suite = bed.install(config, b"survives")
        bed.crash("s3")
        manager = bed.clients["client"].manager
        manager.call_timeout = 150.0
        with pytest.raises(ReproError):
            bed.run(delete_suite(manager, config, strict=True))
        manager.call_timeout = 2_000.0
        bed.restart("s3")
        # Nothing was deleted: the suite still reads fine.
        assert bed.run(suite.read()).data == b"survives"
