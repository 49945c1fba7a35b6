"""The single-round-trip read fast path.

The cheapest representative's version inquiry carries the file
contents (``txn.stat`` with ``read_data=True``), so a default read
completes in one data-bearing round trip.  These tests pin the
acceptance criteria: exactly one round trip when a current
representative answers the inquiry, byte-identical results versus the
legacy two-trip path on the same seed, and a graceful fallback when
the piggyback target is stale, truncated, down, or the read is
``for_update`` — on the simulated and the live runtime alike.
"""

import asyncio

import pytest

from tests.helpers import triple_config
from repro.chaos.soak import SoakConfig, run_live_soak, run_sim_soak
from repro.core import make_configuration
from repro.live import LoopbackCluster
from repro.rpc.messages import Request
from repro.testbed import Testbed


def record_methods(bed):
    """Wrap the sim network's send to log each request's method name."""
    methods = []
    original_send = bed.network.send

    def counting_send(source, destination, payload):
        if isinstance(payload, Request):
            methods.append(payload.method)
        original_send(source, destination, payload)

    bed.network.send = counting_send
    return methods


def fresh_bed(**kwargs):
    return Testbed(servers=["s1", "s2", "s3"], seed=7,
                   refresh_enabled=False, **kwargs)


class TestFastPath:
    def test_default_read_is_single_round_trip(self):
        """Acceptance: one data-bearing trip — no txn.read at all."""
        bed = fresh_bed(profile=True)
        suite = bed.install(triple_config(), b"payload")
        methods = record_methods(bed)
        result = bed.run(suite.read())
        bed.settle(5_000.0)
        assert result.data == b"payload"
        assert methods.count("txn.stat") == 3
        assert methods.count("txn.read") == 0
        assert bed.metrics.counter("suite.read_fastpath").value == 1
        assert bed.metrics.counter("suite.read_fallback").value == 0
        phases = bed.profiler.stats()
        assert phases["read.fastpath"].count == 1
        assert "read.fallback" not in phases

    def test_data_served_by_cheapest_current_rep(self):
        bed = fresh_bed()
        suite = bed.install(triple_config(), b"payload")
        result = bed.run(suite.read())
        # Same choice the legacy path makes: rep-1 has the lowest
        # latency hint, and everyone is current after install.
        assert result.served_by == "rep-1"
        assert result.version == 1
        assert sorted(result.quorum) == ["rep-1", "rep-2", "rep-3"]
        assert result.observed == {"rep-1": 1, "rep-2": 1, "rep-3": 1}

    def test_fastpath_matches_legacy_byte_for_byte(self):
        data = b"x" * 4_096
        results = []
        for fastpath in (True, False):
            bed = fresh_bed()
            suite = bed.install(triple_config(), data,
                                read_fastpath=fastpath)
            bed.run(suite.write(data + b"-v2"))
            results.append(bed.run(suite.read()))
        fast, legacy = results
        assert fast.data == legacy.data == data + b"-v2"
        assert fast.version == legacy.version
        assert fast.served_by == legacy.served_by
        # The fast path waits for the (bulkier, hence later)
        # data-bearing reply, so it may gather *more* responders than
        # the legacy read — never fewer, and never a different answer.
        assert set(legacy.quorum) <= set(fast.quorum)
        for rep_id, version in legacy.observed.items():
            assert fast.observed[rep_id] == version

    def test_oversized_file_truncates_and_falls_back(self):
        bed = fresh_bed(profile=True)
        data = b"z" * 1_000
        suite = bed.install(triple_config(), data, read_max_bytes=100)
        methods = record_methods(bed)
        result = bed.run(suite.read())
        assert result.data == data
        assert methods.count("txn.read") == 1
        assert bed.metrics.counter("suite.read_truncated").value == 1
        assert bed.metrics.counter("suite.read_fallback").value == 1
        assert bed.metrics.counter("suite.read_fastpath").value == 0
        phases = bed.profiler.stats()
        assert phases["read.fallback"].count == 1
        assert "read.fastpath" not in phases

    def test_stale_piggyback_target_falls_back(self):
        bed = fresh_bed()
        suite = bed.install(triple_config(), b"v1")
        # Strand rep-1 (the piggyback target: cheapest hint) at v1.
        bed.crash("s1")
        writer = bed.suite(triple_config())
        bed.run(writer.write(b"v2"))
        bed.restart("s1")
        result = bed.run(suite.read())
        # rep-1's reply carried v1 data — not current, so the read
        # fell back and fetched from the cheapest *current* rep.
        assert result.data == b"v2"
        assert result.served_by == "rep-2"
        assert "rep-1" in result.stale
        assert bed.metrics.counter("suite.read_fallback").value == 1

    def test_down_piggyback_target_falls_back(self):
        bed = fresh_bed()
        suite = bed.install(triple_config(), b"v1")
        suite.inquiry_timeout = 100.0
        bed.crash("s1")
        result = bed.run(suite.read())
        assert result.data == b"v1"
        assert result.served_by == "rep-2"
        assert bed.metrics.counter("suite.read_fallback").value == 1

    def test_for_update_read_keeps_two_trips(self):
        bed = fresh_bed()
        suite = bed.install(triple_config(), b"v1")
        methods = record_methods(bed)

        def bump(txn):
            current = yield from suite.read_in(txn, for_update=True)
            return (yield from suite.write_in(
                txn, current.data + b"+"))

        result = bed.run(suite.transact(bump))
        assert result.version == 2
        # The exclusive inquiry must not drag data along: staging
        # happens next, and the separate read keeps it untangled.
        assert methods.count("txn.read") == 1
        assert bed.metrics.counter("suite.read_fastpath").value == 0

    def test_fastpath_off_restores_legacy_messages(self):
        bed = fresh_bed()
        suite = bed.install(triple_config(), b"payload",
                            read_fastpath=False)
        methods = record_methods(bed)
        result = bed.run(suite.read())
        assert result.data == b"payload"
        assert methods.count("txn.read") == 1
        assert bed.metrics.counter("suite.read_fastpath").value == 0
        assert bed.metrics.counter("suite.read_fallback").value == 1


class TestFastPathChaos:
    def test_soak_with_fastpath_holds_invariants(self):
        report = run_sim_soak(SoakConfig(ops=40, seed=3))
        assert report.ok, report.report.violations
        assert report.report.successful_reads > 0

    def test_soak_with_truncated_piggybacks_holds_invariants(self):
        # Payloads are soak-<i> tags (6+ bytes): a 4-byte ceiling makes
        # every piggyback truncate, so the fallback path runs under
        # message loss, delays, duplicates and crashes.
        report = run_sim_soak(SoakConfig(ops=40, seed=3,
                                         read_max_bytes=4))
        assert report.ok, report.report.violations
        assert report.report.successful_reads > 0

    def test_same_seed_fastpath_and_legacy_serve_same_bytes(self):
        fast = run_sim_soak(SoakConfig(ops=30, seed=5))
        legacy = run_sim_soak(SoakConfig(ops=30, seed=5,
                                         read_fastpath=False))
        assert fast.ok and legacy.ok
        # Chaos consumes random streams differently once message sizes
        # change, so histories need not be identical — but both ended
        # healed, and the final reads must agree byte-for-byte on the
        # converged state each run committed.
        for report in (fast, legacy):
            tail = report.history[-report.config.final_reads:]
            assert all(op.kind == "read" and op.ok for op in tail)
            assert {op.version for op in tail} == \
                {report.report.final_version}


class TestLiveFastPath:
    def test_live_read_is_single_round_trip_and_matches_legacy(self):
        config = make_configuration(
            "live-fast", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
            latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0})
        data = b"live payload " * 100

        async def scenario():
            async with LoopbackCluster(["s1", "s2", "s3"]) as cluster:
                fast = await cluster.install(config, data)
                legacy = cluster.suite(config, read_fastpath=False)
                sent = cluster.client.endpoint.calls_sent
                fast_result = await cluster.read(fast)
                fast_calls = cluster.client.endpoint.calls_sent - sent
                sent = cluster.client.endpoint.calls_sent
                legacy_result = await cluster.read(legacy)
                legacy_calls = cluster.client.endpoint.calls_sent - sent
                return fast_result, fast_calls, legacy_result, \
                    legacy_calls

        fast_result, fast_calls, legacy_result, legacy_calls = \
            asyncio.run(scenario())
        assert fast_result.data == legacy_result.data == data
        assert fast_result.version == legacy_result.version
        assert fast_result.served_by == legacy_result.served_by
        # 3 stats (locks dropped with the replies: no release round),
        # versus the same plus txn.read.
        assert fast_calls == 3
        assert legacy_calls == 4

    def test_live_soak_with_fastpath_holds_invariants(self):
        report = asyncio.run(run_live_soak(
            SoakConfig(ops=25, seed=4, read_max_bytes=4)))
        assert report.ok, report.report.violations
        assert report.runtime == "live"
