"""Suite administration: status, invariants, forced convergence."""

import pytest

from tests.helpers import triple_config, write_in_quorum
from repro.core import (force_converge, suite_status, verify_invariants)
from repro.testbed import Testbed


class TestSuiteStatus:
    def test_healthy_suite_all_current(self, bed):
        suite = bed.install(triple_config(), b"data")

        def flow():
            return (yield from suite_status(suite))

        status = bed.run(flow())
        assert status.suite_name == "db"
        assert status.current_version == 1
        assert status.reachable_votes == 3
        assert status.stale == []
        assert status.unreachable == []
        assert status.can_read(2) and status.can_write(2)

    def test_reports_stale_representative(self, bed):
        suite = bed.install(triple_config(), b"data")
        suite.refresher.enabled = False
        bed.run(write_in_quorum(suite, b"newer"))

        status = bed.run(suite_status(suite))
        assert status.current_version == 2
        assert [rep.rep_id for rep in status.stale] == ["rep-3"]

    def test_reports_unreachable_representative(self, bed):
        suite = bed.install(triple_config(), b"data")
        suite.inquiry_timeout = 100.0
        bed.crash("s2")
        status = bed.run(suite_status(suite))
        assert [rep.rep_id for rep in status.unreachable] == ["rep-2"]
        assert status.reachable_votes == 2
        assert status.current_version == 1

    def test_below_read_quorum_current_unknown(self, bed):
        suite = bed.install(triple_config(), b"data")
        suite.inquiry_timeout = 100.0
        bed.crash("s1")
        bed.crash("s2")
        status = bed.run(suite_status(suite))
        assert status.current_version is None
        assert not status.can_read(2)

    def test_rows_shape(self, bed):
        suite = bed.install(triple_config(), b"data")
        status = bed.run(suite_status(suite))
        rows = status.as_rows()
        assert len(rows) == 3
        assert set(rows[0]) == {"rep", "server", "votes", "reachable",
                                "version", "stamp"}


class TestVerifyInvariants:
    def test_healthy_suite_passes(self, bed):
        suite = bed.install(triple_config(), b"data")
        bed.run(suite.write(b"more"))
        bed.settle()
        report = bed.run(verify_invariants(suite))
        assert report.ok
        assert report.problems == []

    def test_staleness_is_not_a_violation(self, bed):
        suite = bed.install(triple_config(), b"data")
        suite.refresher.enabled = False
        bed.run(suite.write(b"more"))
        report = bed.run(verify_invariants(suite))
        assert report.ok  # stale copies are normal, not corrupt

    def test_below_quorum_reported(self, bed):
        suite = bed.install(triple_config(), b"data")
        suite.inquiry_timeout = 100.0
        bed.crash("s1")
        bed.crash("s2")
        report = bed.run(verify_invariants(suite))
        assert not report.ok
        assert "cannot establish currency" in report.problems[0]

    def test_corruption_detected(self, bed):
        """Manually corrupt a replica's version to be 'from the future'
        — verify_invariants must flag it."""
        suite = bed.install(triple_config(), b"data")
        fs = bed.servers["s3"].server.fs
        data, _version = fs.read_file_sync("suite:db")
        fs.write_file_sync("suite:db", data, version=99)
        report = bed.run(verify_invariants(suite))
        assert not report.ok
        assert any("no write quorum corroborates" in problem
                   for problem in report.problems)


class TestForceConverge:
    def test_converges_stale_suite(self, bed):
        suite = bed.install(triple_config(), b"data")
        suite.refresher.delay = 0.0
        # Build up staleness with refresher off, then converge.
        suite.refresher.enabled = False
        for i in range(3):
            bed.run(suite.write(f"w{i}".encode()))
        suite.refresher.enabled = True

        status = bed.run(force_converge(suite))
        assert status.stale == []
        assert status.current_version == 4
        versions = {node.server.fs.stat("suite:db").version
                    for node in bed.servers.values()}
        assert versions == {4}

    def test_already_converged_returns_quickly(self, bed):
        suite = bed.install(triple_config(), b"data")
        start = bed.sim.now
        status = bed.run(force_converge(suite))
        assert status.stale == []
        assert bed.sim.now - start < 1_000.0
