"""Negative demonstrations: break a protocol rule, observe the anomaly.

Each test disables one of the correctness ingredients and shows the
concrete failure it is there to prevent — executable documentation of
the paper's safety argument:

* version inquiries must gather a full read quorum (not any one
  representative), or reads can return stale committed data;
* ``r + w > N``, or a read quorum can miss the latest write entirely;
* ``2w > N``, or two writes can commit against disjoint quorums and
  collide on the same version number.
"""

import pytest

from tests.helpers import triple_config, write_in_quorum
from repro.core import Representative, SuiteConfiguration
from repro.core.suite import FileSuiteClient
from repro.errors import QuorumUnavailableError
from repro.testbed import Testbed
from repro.txn.locks import SHARED


def force_quorums(config: SuiteConfiguration, read_quorum: int,
                  write_quorum: int) -> SuiteConfiguration:
    """Bypass validation to build a deliberately illegal configuration."""
    object.__setattr__(config, "read_quorum", read_quorum)
    object.__setattr__(config, "write_quorum", write_quorum)
    return config


class SingleRepInquiryClient(FileSuiteClient):
    """BROKEN ON PURPOSE: accepts the first inquiry response as truth."""

    def _inquire(self, txn, threshold, mode, include_weak, **kwargs):
        return super()._inquire(txn, threshold=1, mode=mode,
                                include_weak=include_weak, **kwargs)


class TestSingleRepInquiry:
    def test_stale_read_anomaly(self):
        """A one-representative 'quorum' returns data that a correct
        client would never serve: version 1 after version 2 committed."""
        bed = Testbed(servers=["s1", "s2", "s3"], seed=41,
                      refresh_enabled=False)
        config = triple_config()
        good = bed.install(config, b"v1-data")
        bed.run(write_in_quorum(good, b"v2-data"))   # quorum {s1, s2}

        node = bed.clients["client"]
        broken = SingleRepInquiryClient(node.manager, config,
                                        max_attempts=1,
                                        inquiry_timeout=100.0)
        # Only the stale representative is reachable.
        bed.crash("s1")
        bed.crash("s2")
        result = bed.run(broken.read())
        assert result.data == b"v1-data"         # the anomaly
        assert result.version == 1

    def test_correct_client_blocks_instead(self):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=41,
                      refresh_enabled=False)
        config = triple_config()
        good = bed.install(config, b"v1-data")
        bed.run(good.write(b"v2-data"))
        good.max_attempts = 1
        good.inquiry_timeout = 100.0
        bed.crash("s1")
        bed.crash("s2")
        # Unavailability, never staleness: the paper's trade.
        with pytest.raises(QuorumUnavailableError):
            bed.run(good.read())


class TestReadWriteQuorumOverlap:
    def test_r_plus_w_leq_n_misses_the_latest_write(self):
        """With r + w = N, a read quorum disjoint from the last write
        quorum serves old data as if it were current."""
        bed = Testbed(servers=["s1", "s2", "s3"], seed=42,
                      refresh_enabled=False)
        config = triple_config()          # starts valid: r=2, w=2
        suite = bed.install(config, b"old")
        bed.run(write_in_quorum(suite, b"new"))   # quorum {s1, s2}

        force_quorums(suite.config, read_quorum=1, write_quorum=2)
        suite.max_attempts = 1
        suite.inquiry_timeout = 100.0
        bed.crash("s1")
        bed.crash("s2")
        result = bed.run(suite.read())    # "quorum" = {s3} alone
        assert result.data == b"old"      # the anomaly
        assert result.version == 1


class TestWriteWriteQuorumOverlap:
    def test_2w_leq_n_collides_version_numbers(self):
        """With 2w = N, two concurrent writers commit against disjoint
        quorums: both claim the same version number for different data,
        and the replicas permanently disagree."""
        servers = ["s1", "s2", "s3", "s4"]
        bed = Testbed(servers=servers, clients=["a", "b"], seed=43,
                      refresh_enabled=False)
        reps = tuple(
            Representative(rep_id=f"rep-{s}", server=s, votes=1,
                           latency_hint=float(i))
            for i, s in enumerate(servers))
        config = SuiteConfiguration(suite_name="db",
                                    representatives=reps,
                                    read_quorum=3, write_quorum=3)
        suite_a = bed.install(config, b"base", client="a")
        suite_b = bed.suite(config, client="b")
        force_quorums(suite_a.config, read_quorum=3, write_quorum=2)
        force_quorums(suite_b.config, read_quorum=3, write_quorum=2)

        # Drive the writers onto disjoint quorums via partitions that
        # each still hold w = 2 votes.
        bed.partition([["a", "s1", "s2"], ["b", "s3", "s4"]])
        write_a = bed.run(suite_a.write(b"from-a"))
        write_b = bed.run(suite_b.write(b"from-b"))
        bed.heal()

        assert write_a.version == write_b.version == 2   # collision!
        stored = {name: node.server.fs.read_file_sync("suite:db")[0]
                  for name, node in bed.servers.items()}
        assert stored["s1"] == b"from-a" and stored["s3"] == b"from-b"
        # Same version number, different contents: currency is now
        # undecidable — exactly what 2w > N forbids.
        versions = {node.server.fs.stat("suite:db").version
                    for node in bed.servers.values()}
        assert versions == {2}

    def test_valid_configuration_prevents_the_collision(self):
        """Same scenario under the legal w = 3: the minority-side
        writer blocks instead of colliding."""
        servers = ["s1", "s2", "s3", "s4"]
        bed = Testbed(servers=servers, clients=["a", "b"], seed=43,
                      refresh_enabled=False)
        reps = tuple(
            Representative(rep_id=f"rep-{s}", server=s, votes=1,
                           latency_hint=float(i))
            for i, s in enumerate(servers))
        config = SuiteConfiguration(suite_name="db",
                                    representatives=reps,
                                    read_quorum=2, write_quorum=3)
        suite_a = bed.install(config, b"base", client="a")
        suite_b = bed.suite(config, client="b")
        suite_a.max_attempts = 1
        suite_b.max_attempts = 1
        suite_a.inquiry_timeout = 100.0
        suite_b.inquiry_timeout = 100.0

        bed.partition([["a", "s1", "s2", "s3"], ["b", "s4"]])
        assert bed.run(suite_a.write(b"from-a")).version == 2
        with pytest.raises(QuorumUnavailableError):
            bed.run(suite_b.write(b"from-b"))
