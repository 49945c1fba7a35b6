"""Client-resident weak representatives (temporary copies)."""

import pytest

from tests.helpers import triple_config, wire_message
from repro.core import CachingSuiteClient
from repro.testbed import Testbed


@pytest.fixture
def cached(bed):
    config = triple_config()
    suite = bed.install(config)  # plain handle installs the files
    bed.run(suite.write(b"v2-data"))
    node = bed.clients["client"]
    return CachingSuiteClient(node.manager, config,
                              refresher=node.refresher)


class TestCacheBehaviour:
    def test_first_read_populates(self, bed, cached):
        result = bed.run(cached.read())
        assert result.data == b"v2-data"
        assert cached.cached_version == result.version
        assert bed.metrics.counter("cache.hits").value == 0

    def test_second_read_served_from_cache(self, bed, cached):
        bed.run(cached.read())
        result = bed.run(cached.read())
        assert result.served_by == "client-cache"
        assert result.data == b"v2-data"
        assert bed.metrics.counter("cache.hits").value == 1

    def test_remote_write_invalidates_via_version_check(self, bed,
                                                        cached):
        bed.run(cached.read())
        other = bed.suite(cached.config)
        bed.run(other.write(b"fresh"))
        result = bed.run(cached.read())
        assert result.data == b"fresh"
        assert result.served_by != "client-cache"
        assert bed.metrics.counter("cache.misses").value == 1
        # And the cache is warm again at the new version.
        again = bed.run(cached.read())
        assert again.served_by == "client-cache"
        assert again.data == b"fresh"

    def test_own_write_warms_cache(self, bed, cached):
        bed.run(cached.write(b"mine"))
        result = bed.run(cached.read())
        assert result.served_by == "client-cache"
        assert result.data == b"mine"

    def test_invalidate_forces_full_read(self, bed, cached):
        bed.run(cached.read())
        cached.invalidate()
        assert cached.cached_version is None
        result = bed.run(cached.read())
        assert result.served_by != "client-cache"

    def test_cache_hit_still_needs_read_quorum(self, bed, cached):
        """The cache never weakens availability requirements: with the
        read quorum gone, a cached client blocks like anyone else."""
        bed.run(cached.read())
        cached.max_attempts = 1
        cached.inquiry_timeout = 50.0
        bed.crash("s1")
        bed.crash("s2")
        from repro.errors import QuorumUnavailableError
        with pytest.raises(QuorumUnavailableError):
            bed.run(cached.read())

    def test_cache_hit_result_carries_quorum_evidence(self, bed, cached):
        """Regression: a cache hit used to report an empty quorum, an
        empty observed map and a default attempt count, as if no
        inquiry had happened.  The currency check *is* a full version
        inquiry, and the result must say so."""
        bed.run(cached.read())
        result = bed.run(cached.read())
        assert result.served_by == "client-cache"
        assert result.attempts == 1
        assert len(result.quorum) >= cached.config.read_quorum
        assert result.observed
        assert all(version == result.version
                   for version in result.observed.values())
        assert set(result.quorum) <= set(result.observed)

    def test_cache_miss_resolves_in_one_trip(self):
        """A miss costs one data-bearing round: the inquiry that
        detected the stale copy also piggybacked the fresh bytes, so no
        separate ``txn.read`` follows."""
        from repro.rpc.messages import Request

        bed = Testbed(servers=["s1", "s2", "s3"], seed=7,
                      refresh_enabled=False)
        config = triple_config()
        bed.install(config, b"old")
        client = CachingSuiteClient(bed.clients["client"].manager,
                                    config)
        bed.run(client.read())                    # populate the cache
        bed.run(bed.suite(config).write(b"fresh"))  # invalidate remotely
        methods = []
        original_send = bed.network.send

        def counting_send(source, destination, body):
            message = wire_message(body)
            if isinstance(message, Request):
                methods.append(message.method)
            original_send(source, destination, body)

        bed.network.send = counting_send
        result = bed.run(client.read())
        assert result.data == b"fresh"
        assert result.served_by != "client-cache"
        assert methods.count("txn.read") == 0
        assert bed.metrics.counter("cache.misses").value == 1
        # And the fresh copy warmed the cache again.
        again = bed.run(client.read())
        assert again.served_by == "client-cache"

    def test_cache_hit_is_cheaper_than_full_read(self, bed):
        """On a bandwidth-limited link the version inquiry is far
        cheaper than a data transfer."""
        bed2 = Testbed(servers=["s1", "s2", "s3"])
        data = b"x" * 8_192
        for server in ("s1", "s2", "s3"):
            bed2.set_client_link("client", server, 1.0,
                                 byte_time=50.0 / len(data))
        config = triple_config()
        bed2.install(config, data)
        node = bed2.clients["client"]
        client = CachingSuiteClient(node.manager, config)

        def timed_read():
            start = bed2.sim.now
            yield from client.read()
            return bed2.sim.now - start

        cold = bed2.run(timed_read())
        warm = bed2.run(timed_read())
        assert warm < cold / 3
