"""Baseline replica-control schemes and their availability shapes."""

import pytest

from repro.baselines import (MajorityConsensusClient, PrimaryCopyClient,
                             ReadOneWriteAllClient, majority_configuration,
                             majority_quorum)
from repro.core import install_suite
from repro.errors import ReproError
from repro.testbed import Testbed


SERVERS = ["s1", "s2", "s3"]


@pytest.fixture
def bed():
    return Testbed(servers=SERVERS, seed=11)


def manager(bed):
    return bed.clients["client"].manager


class TestRowa:
    def build(self, bed, **kwargs):
        client = ReadOneWriteAllClient(
            manager(bed), "obj", SERVERS,
            latency_hints={"s1": 1.0, "s2": 2.0, "s3": 3.0}, **kwargs)
        bed.run(client.install(b"v1"))
        return client

    def test_round_trip(self, bed):
        client = self.build(bed)
        bed.run(client.write(b"v2"))
        result = bed.run(client.read())
        assert result.data == b"v2"
        assert result.version == 2

    def test_write_updates_every_replica(self, bed):
        client = self.build(bed)
        bed.run(client.write(b"v2"))
        for server in SERVERS:
            fs = bed.servers[server].server.fs
            assert fs.read_file_sync("rowa:obj") == (b"v2", 2)

    def test_read_touches_single_cheapest(self, bed):
        client = self.build(bed)
        result = bed.run(client.read())
        assert result.replicas == ["s1"]

    def test_read_fails_over_to_next_replica(self, bed):
        client = self.build(bed)
        bed.crash("s1")
        result = bed.run(client.read())
        assert result.replicas == ["s2"]

    def test_read_survives_n_minus_1_failures(self, bed):
        client = self.build(bed)
        bed.crash("s1")
        bed.crash("s2")
        assert bed.run(client.read()).data == b"v1"

    def test_write_blocked_by_single_failure(self, bed):
        client = self.build(bed, max_attempts=1)
        bed.crash("s3")
        with pytest.raises(ReproError):
            bed.run(client.write(b"v2"))


class TestPrimaryCopy:
    def build(self, bed, **kwargs):
        client = PrimaryCopyClient(manager(bed), "obj", SERVERS, **kwargs)
        bed.run(client.install(b"v1"))
        return client

    def test_round_trip(self, bed):
        client = self.build(bed)
        bed.run(client.write(b"v2"))
        assert bed.run(client.read()).data == b"v2"

    def test_write_commits_at_primary_only(self, bed):
        client = self.build(bed)
        result = bed.run(client.write(b"v2"))
        assert result.replicas == ["s1"]

    def test_secondaries_catch_up_asynchronously(self, bed):
        client = self.build(bed)
        bed.run(client.write(b"v2"))
        bed.settle()
        for server in ("s2", "s3"):
            fs = bed.servers[server].server.fs
            assert fs.read_file_sync("primary:obj") == (b"v2", 2)
        assert bed.metrics.counter("primary.propagations").value == 2

    def test_primary_down_blocks_writes(self, bed):
        client = self.build(bed, max_attempts=1)
        bed.crash("s1")
        with pytest.raises(ReproError):
            bed.run(client.write(b"v2"))

    def test_primary_down_blocks_strict_reads(self, bed):
        client = self.build(bed, max_attempts=1)
        bed.crash("s1")
        with pytest.raises(ReproError):
            bed.run(client.read())

    def test_stale_reads_from_secondary(self, bed):
        client = self.build(bed, allow_stale_reads=True)
        bed.run(client.write(b"v2"))
        bed.crash("s1")  # before propagation completes
        result = bed.run(client.read())
        assert result.version in (1, 2)  # staleness is permitted
        assert bed.metrics.counter("primary.stale_reads").value == 1


class TestMajority:
    def test_quorum_sizes(self):
        assert majority_quorum(1) == 1
        assert majority_quorum(3) == 2
        assert majority_quorum(4) == 3
        assert majority_quorum(5) == 3
        with pytest.raises(ValueError):
            majority_quorum(0)

    def test_configuration_is_uniform(self):
        config = majority_configuration("obj", SERVERS)
        assert all(rep.votes == 1 for rep in config.representatives)
        assert config.read_quorum == config.write_quorum == 2
        config.validate()

    def test_operates_with_minority_down(self, bed):
        client = MajorityConsensusClient.build(manager(bed), "obj",
                                               SERVERS)
        bed.run(install_suite(manager(bed), client.config, b"v1"))
        bed.crash("s3")
        assert bed.run(client.write(b"v2")).version == 2
        assert bed.run(client.read()).data == b"v2"

    def test_blocks_with_majority_down(self, bed):
        client = MajorityConsensusClient.build(
            manager(bed), "obj", SERVERS, max_attempts=1)
        bed.run(install_suite(manager(bed), client.config, b"v1"))
        bed.crash("s2")
        bed.crash("s3")
        with pytest.raises(ReproError):
            bed.run(client.read())


class TestComparativeShape:
    """The qualitative comparison the paper draws (experiment T2's
    invariants): voting trades a little read availability for much
    better write availability than ROWA; primary copy is bounded by
    one machine."""

    def test_one_crash_rowa_vs_voting(self, bed):
        rowa = ReadOneWriteAllClient(manager(bed), "r", SERVERS,
                                     max_attempts=1)
        voting = MajorityConsensusClient.build(
            manager(bed), "v", SERVERS, max_attempts=1)
        bed.run(rowa.install(b"x"))
        bed.run(install_suite(manager(bed), voting.config, b"x"))
        bed.crash("s2")
        # ROWA: reads fine, writes dead.  Voting: both fine.
        assert bed.run(rowa.read()).data == b"x"
        with pytest.raises(ReproError):
            bed.run(rowa.write(b"y"))
        assert bed.run(voting.write(b"y")).version == 2
        assert bed.run(voting.read()).data == b"y"
