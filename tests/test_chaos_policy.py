"""Chaos policy and retry policy: determinism, partitions, backoff."""

import pytest

from repro.chaos import ChaosPolicy, RetryPolicy
from repro.errors import RpcTimeout
from repro.sim.rng import RandomStreams
from repro.testbed import Testbed


class TestRetryPolicy:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base=10.0, multiplier=2.0, cap=1_000.0,
                             jitter=0.0)
        rng = RandomStreams(seed=3).stream("x")
        assert [policy.delay(i, rng) for i in range(5)] == \
            [10.0, 20.0, 40.0, 80.0, 160.0]

    def test_cap_bounds_the_ladder(self):
        policy = RetryPolicy(base=10.0, multiplier=2.0, cap=50.0,
                             jitter=0.0)
        rng = RandomStreams(seed=3).stream("x")
        assert policy.delay(10, rng) == 50.0

    def test_jitter_spreads_around_the_nominal_delay(self):
        policy = RetryPolicy(base=100.0, multiplier=1.0, cap=1_000.0,
                             jitter=0.5)
        rng = RandomStreams(seed=5).stream("x")
        delays = [policy.delay(0, rng) for _ in range(200)]
        assert all(50.0 <= delay <= 150.0 for delay in delays)
        assert len(set(delays)) > 100  # actually random, not constant

    def test_same_seed_same_delays(self):
        policy = RetryPolicy(base=25.0)
        one = [policy.delay(i, RandomStreams(seed=9).stream("r"))
               for i in range(1)]
        two = [policy.delay(i, RandomStreams(seed=9).stream("r"))
               for i in range(1)]
        assert one == two

    def test_zero_base_means_no_delay_and_no_draw(self):
        policy = RetryPolicy(base=0.0)
        rng = RandomStreams(seed=1).stream("x")
        before = rng.random()
        assert policy.delay(3, rng) == 0.0
        rng2 = RandomStreams(seed=1).stream("x")
        assert rng2.random() == before  # the delay drew nothing


class TestChaosPolicy:
    def test_disabled_policy_passes_everything(self):
        policy = ChaosPolicy(seed=1, drop_probability=0.99)
        policy.enabled = False
        verdict = policy.filter("a", "b")
        assert not verdict.drop and verdict.delay == 0.0
        assert policy.stats() == {"dropped": 0, "delayed": 0,
                                  "duplicated": 0, "slowed": 0,
                                  "partition_drops": 0}

    def test_same_seed_same_verdicts_per_link(self):
        def sample():
            policy = ChaosPolicy(seed=7, drop_probability=0.3,
                                 delay_probability=0.4, delay_min=1.0,
                                 delay_max=9.0,
                                 duplicate_probability=0.2)
            return [policy.filter("client", "s1") for _ in range(50)]

        assert sample() == sample()

    def test_links_are_independent_streams(self):
        policy = ChaosPolicy(seed=7, delay_probability=0.9,
                             delay_min=0.0, delay_max=100.0)
        forward = [policy.filter("a", "b").delay for _ in range(20)]
        # Traffic on another link must not perturb a link's stream.
        policy2 = ChaosPolicy(seed=7, delay_probability=0.9,
                              delay_min=0.0, delay_max=100.0)
        for _ in range(20):
            policy2.filter("c", "d")
        forward2 = [policy2.filter("a", "b").delay for _ in range(20)]
        assert forward == forward2

    def test_loopback_is_never_faulted(self):
        policy = ChaosPolicy(seed=1, drop_probability=0.99)
        for _ in range(20):
            assert not policy.filter("s1", "s1").drop

    def test_partition_is_symmetric_and_groupwise(self):
        policy = ChaosPolicy(seed=0)
        policy.partition([(), ("s2", "s3")])
        assert policy.partitioned("client", "s2")
        assert policy.partitioned("s2", "client")
        assert not policy.partitioned("s2", "s3")       # same minority
        assert not policy.partitioned("client", "s1")   # both implicit 0
        assert policy.filter("client", "s2").drop
        assert policy.partition_drops == 1
        policy.heal()
        assert not policy.partitioned("client", "s2")

    def test_duplicate_arrives_after_the_original(self):
        policy = ChaosPolicy(seed=3, duplicate_probability=0.9,
                             delay_probability=0.9, delay_min=1.0,
                             delay_max=5.0)
        for _ in range(100):
            verdict = policy.filter("a", "b")
            if verdict.duplicate:
                assert verdict.duplicate_delay >= verdict.delay
                break
        else:
            pytest.fail("no duplicate sampled at p=0.9 in 100 draws")

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            ChaosPolicy(drop_probability=1.0)
        with pytest.raises(ValueError):
            ChaosPolicy(delay_min=5.0, delay_max=1.0)


class TestChaosOnSimNetwork:
    """The policy interposed on the simulated network."""

    def test_partition_blocks_rpc_until_healed(self):
        bed = Testbed(servers=["s1"], seed=4, call_timeout=200.0)
        policy = ChaosPolicy(seed=4)
        bed.network.chaos = policy
        client = bed.clients["client"]
        endpoint = client.endpoint
        policy.partition([(), ("s1",)])

        def call():
            txn = str(client.manager.begin().txn_id)
            try:
                yield endpoint.call("s1", "txn.abort", timeout=200.0,
                                    txn=txn)
                return "ok"
            except RpcTimeout:
                return "timeout"

        assert bed.run(call()) == "timeout"
        assert policy.partition_drops > 0
        policy.heal()
        assert bed.run(call()) == "ok"

    def test_total_loss_drops_messages_and_counts(self):
        bed = Testbed(servers=["s1"], seed=4, call_timeout=100.0)
        policy = ChaosPolicy(seed=4, drop_probability=0.99)
        bed.network.chaos = policy
        client = bed.clients["client"]
        endpoint = client.endpoint
        before = bed.network.messages_dropped

        def call():
            txn = str(client.manager.begin().txn_id)
            try:
                yield endpoint.call("s1", "txn.abort", timeout=100.0,
                                    txn=txn)
                return "ok"
            except RpcTimeout:
                return "timeout"

        assert bed.run(call()) == "timeout"
        assert policy.dropped > 0
        assert bed.network.messages_dropped > before

    def test_duplicates_are_absorbed_by_at_most_once(self):
        """Heavy duplication must not corrupt request handling: the
        server's dedup layer answers retransmissions from its reply
        cache, so a suite write still commits exactly once."""
        from tests.helpers import triple_config

        bed = Testbed(servers=["s1", "s2", "s3"], seed=11,
                      call_timeout=500.0)
        policy = ChaosPolicy(seed=11, duplicate_probability=0.5,
                             delay_probability=0.5, delay_min=0.5,
                             delay_max=4.0)
        suite = bed.install(triple_config())
        bed.network.chaos = policy
        write = bed.run(suite.write(b"dup-proof"))
        read = bed.run(suite.read())
        assert read.version == write.version
        assert read.data == b"dup-proof"
        assert policy.duplicated > 0
