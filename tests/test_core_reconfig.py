"""Live reconfiguration of vote assignments."""

import pytest

from tests.helpers import triple_config, write_in_quorum
from repro.core import (Representative, SuiteConfiguration,
                        change_configuration, make_configuration)
from repro.core.reconfig import _delete_representative
from repro.errors import InvalidConfigurationError
from repro.testbed import Testbed


class TestBasicReconfiguration:
    def test_quorum_change(self, bed):
        suite = bed.install(triple_config(), b"data")
        new = triple_config(r=1, w=3)
        installed = bed.run(change_configuration(suite, new))
        assert installed.config_version == 2
        assert suite.config.read_quorum == 1
        assert bed.run(suite.read()).data == b"data"
        assert bed.run(suite.write(b"after")).version > 1

    def test_vote_change(self, bed):
        suite = bed.install(triple_config(), b"data")
        new = triple_config(votes=(2, 1, 1), r=2, w=3)
        installed = bed.run(change_configuration(suite, new))
        assert installed.total_votes == 4
        write = bed.run(write_in_quorum(suite, b"weighted"))
        # rep-1 (2 votes) + rep-2 form the cheapest 3-vote quorum
        assert write.quorum == ["rep-1", "rep-2"]

    def test_wrong_suite_name_rejected(self, bed):
        suite = bed.install(triple_config(), b"data")
        other = triple_config(name="other")
        with pytest.raises(InvalidConfigurationError):
            bed.run(change_configuration(suite, other))

    def test_config_version_monotonic_over_changes(self, bed):
        suite = bed.install(triple_config(), b"data")
        for r, w in ((1, 3), (2, 2), (2, 3)):
            bed.run(change_configuration(suite, triple_config(r=r, w=w)))
        assert suite.config.config_version == 4

    def test_data_version_bumped_by_reconfig(self, bed):
        suite = bed.install(triple_config(), b"data")
        before = bed.run(suite.current_version())
        bed.run(change_configuration(suite, triple_config(r=1, w=3)))
        after = bed.run(suite.current_version())
        assert after == before + 1


class TestPropagation:
    def test_stale_client_adopts_new_configuration(self, bed):
        old = triple_config()
        suite = bed.install(old, b"data")
        bed.run(change_configuration(suite, triple_config(r=1, w=3)))
        bed.settle()
        stale_client = bed.suite(old)
        result = bed.run(stale_client.read())
        assert result.data == b"data"
        assert stale_client.config.config_version == 2
        assert stale_client.config.write_quorum == 3
        assert bed.metrics.counter("suite.config_refreshes").value >= 1

    def test_all_reps_carry_new_stamp_after_settle(self, bed):
        suite = bed.install(triple_config(), b"data")
        bed.run(change_configuration(suite, triple_config(r=1, w=3)))
        bed.settle()
        for node in bed.servers.values():
            properties = node.server.fs.stat("suite:db").properties
            assert properties["stamp"] == 2

    def test_reconfig_with_one_server_down(self, bed):
        suite = bed.install(triple_config(), b"data")
        bed.crash("s3")
        installed = bed.run(
            change_configuration(suite, triple_config(r=1, w=3)))
        assert installed.config_version == 2
        bed.restart("s3")
        bed.settle(30_000.0)
        # s3 catches up through background refresh.
        assert bed.servers["s3"].server.fs.stat(
            "suite:db").properties["stamp"] == 2


class TestMembershipChange:
    def test_add_representative(self, bed):
        bed.add_server("s4")
        suite = bed.install(triple_config(), b"data")
        reps = suite.config.representatives + (
            Representative(rep_id="rep-4", server="s4", votes=1,
                           latency_hint=5.0),)
        new = SuiteConfiguration(suite_name="db", representatives=reps,
                                 read_quorum=2, write_quorum=3)
        installed = bed.run(change_configuration(suite, new))
        assert installed.total_votes == 4
        assert bed.servers["s4"].server.fs.exists("suite:db")
        assert bed.run(suite.read()).data == b"data"

    def test_remove_representative(self, bed):
        suite = bed.install(triple_config(), b"data")
        new = SuiteConfiguration(
            suite_name="db",
            representatives=suite.config.representatives[:2],
            read_quorum=1, write_quorum=2)
        installed = bed.run(change_configuration(suite, new))
        assert len(installed.representatives) == 2
        bed.settle()
        # The removed representative's copy is deleted best-effort.
        assert not bed.servers["s3"].server.fs.exists("suite:db")
        assert bed.run(suite.write(b"post")).version > 1

    def test_demote_to_weak(self, bed):
        suite = bed.install(triple_config(latencies=(10.0, 20.0, 1.0)),
                            b"data")
        new = triple_config(votes=(1, 1, 0), r=1, w=2,
                            latencies=(10.0, 20.0, 1.0))
        bed.run(change_configuration(suite, new))
        bed.settle()
        result = bed.run(suite.read())
        # The demoted, now-weak representative is the fastest current one.
        assert result.served_by == "rep-3"


class TestBestEffortCleanup:
    def test_failed_delete_does_not_fail_the_commit(self, bed):
        """Removing a crashed representative commits fine; the
        background delete gives up silently (no orphan-process crash
        out of the settle)."""
        suite = bed.install(triple_config(), b"data")
        bed.crash("s3")
        new = SuiteConfiguration(
            suite_name="db",
            representatives=suite.config.representatives[:2],
            read_quorum=1, write_quorum=2)
        installed = bed.run(change_configuration(suite, new))
        assert installed.config_version == 2
        bed.settle(30_000.0)          # cleanup times out, swallowed
        assert bed.run(suite.write(b"post")).version > 1
        bed.restart("s3")
        # The unreferenced copy survives on the removed server; it can
        # never affect a quorum again.
        assert bed.servers["s3"].server.fs.exists("suite:db")

    def test_readded_representative_is_recreated_cleanly(self, bed):
        suite = bed.install(triple_config(), b"data")
        removed = SuiteConfiguration(
            suite_name="db",
            representatives=suite.config.representatives[:2],
            read_quorum=1, write_quorum=2)
        bed.run(change_configuration(suite, removed))
        bed.settle()
        assert not bed.servers["s3"].server.fs.exists("suite:db")
        readded = triple_config(r=2, w=2)
        installed = bed.run(change_configuration(suite, readded))
        assert installed.config_version == 3
        bed.settle()
        assert bed.servers["s3"].server.fs.stat(
            "suite:db").properties["stamp"] == 3
        assert bed.run(suite.read()).data == b"data"
        assert bed.run(suite.write(b"again")).version > 1

    def test_late_delete_skips_a_readded_copy(self, bed):
        """A background delete from configuration v2 that fires after a
        v3 reconfiguration re-added the server must leave the re-staged
        copy alone (stamp guard)."""
        suite = bed.install(triple_config(), b"data")
        removed = SuiteConfiguration(
            suite_name="db",
            representatives=suite.config.representatives[:2],
            read_quorum=1, write_quorum=2)
        bed.run(change_configuration(suite, removed))
        bed.settle()
        bed.run(change_configuration(suite, triple_config()))
        bed.settle()
        assert bed.servers["s3"].server.fs.exists("suite:db")
        # Replay v2's cleanup as if its delivery had been delayed.
        bed.run(_delete_representative(suite, "s3", "suite:db", 2))
        bed.settle()
        assert bed.servers["s3"].server.fs.exists("suite:db")
        assert bed.servers["s3"].server.fs.stat(
            "suite:db").properties["stamp"] == 3


class TestConcurrentReconfiguration:
    def test_racing_clients_resolve_via_adoption(self, bed):
        """Two clients reconfigure the same suite concurrently.  The
        loser hits StaleConfigurationError, adopts the winner's
        configuration, and retries on top of it — no configuration
        version is lost and both changes land."""
        suite_a = bed.install(triple_config(), b"data",
                              max_attempts=8)
        bed.add_client("c2")
        suite_b = bed.suite(triple_config(), client="c2",
                            max_attempts=8)
        results = {}

        def runner(key, client, target):
            installed = yield from change_configuration(client, target)
            results[key] = installed

        bed.sim.spawn(runner("a", suite_a,
                             triple_config(votes=(2, 1, 1), r=2, w=3)),
                      name="reconfig-a")
        bed.sim.spawn(runner("b", suite_b, triple_config(r=1, w=3)),
                      name="reconfig-b")
        bed.settle(60_000.0)
        assert set(results) == {"a", "b"}
        # Serialized: one installed version 2, the other version 3.
        versions = {results["a"].config_version,
                    results["b"].config_version}
        assert versions == {2, 3}
        # Every representative carries the final configuration stamp.
        for node in bed.servers.values():
            properties = node.server.fs.stat("suite:db").properties
            assert properties["stamp"] == 3
        # A fresh client sees the final configuration and can operate.
        bed.add_client("c3")
        fresh = bed.suite(triple_config(), client="c3")
        assert bed.run(fresh.read()).data == b"data"
        assert fresh.config.config_version == 3


class TestCrossConfigurationCoverage:
    def test_weight_shift_covers_new_write_quorum(self):
        """A pure vote reassignment commits at an *old*-configuration
        write quorum, which under the shifted weights can hold fewer
        than the new ``w`` votes.  The post-commit coverage pass must
        top the copy set up so a new-configuration read quorum cannot
        be assembled entirely from representatives that missed the
        reconfiguration version."""
        # No background refresh anywhere: the coverage pass alone must
        # make the new version visible.
        bed = Testbed(["s1", "s2", "s3", "s4", "s5"], seed=7,
                      refresh_enabled=False)
        old = make_configuration(
            "db",
            [("s1", 1), ("s2", 1), ("s3", 1), ("s4", 1), ("s5", 1)],
            read_quorum=3, write_quorum=3,
            latency_hints={"s1": 1.0, "s2": 2.0, "s3": 3.0,
                           "s4": 4.0, "s5": 5.0})
        suite = bed.install(old, b"v1")
        bed.run(suite.write(b"v2"))
        # Shift weight onto s4/s5 while making them the cheapest.  The
        # reconfiguration commits at the old cheapest write quorum
        # {s1, s2, s3} — only 2 of the required 3 votes under the new
        # weights — so without the coverage pass a read quorum closing
        # on {s4, s5} alone would miss the reconfiguration version.
        new = make_configuration(
            "db",
            [("s1", 1), ("s2", 1), ("s3", 0), ("s4", 2), ("s5", 1)],
            read_quorum=3, write_quorum=3,
            latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0,
                           "s4": 1.0, "s5": 2.0})
        installed = bed.run(change_configuration(suite, new))
        assert installed.config_version == 2
        # The reader's links to the old quorum are slow, so its gather
        # genuinely closes on {s4, s5} (3 votes) before s1-s3 reply.
        bed.add_client("c2", refresh_enabled=False)
        for server in ("s1", "s2", "s3"):
            bed.network.set_latency("c2", server, 50.0)
            bed.network.set_latency(server, "c2", 50.0)
        reader = bed.suite(installed, client="c2")
        result = bed.run(reader.read())
        assert result.version == 3
        assert result.data == b"v2"

    def test_coverage_tolerates_unreachable_extra(self):
        """If the representative needed for new-quorum coverage is
        down, the reconfiguration still commits — coverage is
        best-effort and the background refresher is the backstop."""
        bed = Testbed(["s1", "s2", "s3", "s4", "s5"], seed=7)
        old = make_configuration(
            "db",
            [("s1", 1), ("s2", 1), ("s3", 1), ("s4", 1), ("s5", 1)],
            read_quorum=3, write_quorum=3,
            latency_hints={"s1": 1.0, "s2": 2.0, "s3": 3.0,
                           "s4": 4.0, "s5": 5.0})
        suite = bed.install(old, b"v1")
        new = make_configuration(
            "db",
            [("s1", 1), ("s2", 1), ("s3", 0), ("s4", 2), ("s5", 1)],
            read_quorum=3, write_quorum=3,
            latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0,
                           "s4": 1.0, "s5": 2.0})
        bed.crash("s4")
        installed = bed.run(change_configuration(suite, new))
        assert installed.config_version == 2
        bed.restart("s4")
        bed.settle(30_000.0)
        # s4 catches up through background refresh.
        assert bed.servers["s4"].server.fs.stat(
            "suite:db").properties["stamp"] == 2
