"""Message-count accounting: the protocol costs what the paper says.

The paper's efficiency argument is about *what moves*: inquiries are
small and parallel, data moves once, commit is a constant number of
small rounds.  These tests pin the message counts of each operation so
an accidental extra round trip (or an accidental broadcast of data)
shows up as a test failure, not a silent 2× latency regression.
"""

import pytest

from tests.helpers import triple_config, watch_requests
from repro.core.analysis import message_cost
from repro.sim.network import estimate_size
from repro.testbed import Testbed


@pytest.fixture
def quiet_bed():
    """A bed whose refresher is off, so counts are purely foreground."""
    bed = Testbed(servers=["s1", "s2", "s3"], seed=7,
                  refresh_enabled=False)
    return bed


def message_delta(bed, operation):
    before = bed.network.messages_sent
    result = bed.run(operation)
    bed.settle(5_000.0)  # let straggler replies, commit retries etc. drain
    return bed.network.messages_sent - before, result


class TestReadCosts:
    def test_read_message_budget(self, quiet_bed):
        bed = quiet_bed
        suite = bed.install(triple_config(), b"x" * 1000)
        delta, _ = message_delta(bed, suite.read())
        # 3 stat requests + 3 replies and nothing else: the data rides
        # the cheapest rep's reply (the fast path) and each rep drops
        # its shared lock as it replies (no release round).
        assert delta == message_cost(suite.config)["read"] == 6

    def test_legacy_read_message_budget(self, quiet_bed):
        """With the fast path off, the dedicated data trip reappears."""
        bed = quiet_bed
        suite = bed.install(triple_config(), b"x" * 1000,
                            read_fastpath=False)
        delta, _ = message_delta(bed, suite.read())
        # 3 stat requests + 3 replies, 1 read + 1 reply = 8.
        assert delta == message_cost(suite.config)["read_fallback"] == 8

    def test_read_in_a_callers_transaction_still_pays_the_release(
            self, quiet_bed):
        """Only a read that owns its transaction is one round: inside
        ``transact`` the locks are held until the commit releases them."""
        bed = quiet_bed
        suite = bed.install(triple_config(), b"x" * 1000)
        delta, _ = message_delta(bed, suite.transact(suite.read_in))
        # 3 stats + 3 replies, then 3 release-prepares + 3 acks.
        assert delta == 12

    def test_only_one_data_transfer_per_read(self, quiet_bed):
        """However large the file, exactly one message carries it."""
        bed = quiet_bed
        data = b"z" * 20_000
        suite = bed.install(triple_config(), data)
        before = bed.network.messages_delivered
        bed.run(suite.read())
        bed.settle(5_000.0)
        # Count delivered messages big enough to contain the data.
        # (The network exposes counts, not contents; estimate by size
        # bookkeeping on a fresh read.)
        # Simply: total bytes moved must be ~ one payload, not three.
        # Re-measure precisely with a byte counter:
        moved = []
        original_send = bed.network.send

        def counting_send(source, destination, payload):
            moved.append(estimate_size(payload))
            original_send(source, destination, payload)

        bed.network.send = counting_send
        bed.run(suite.read())
        bed.settle(5_000.0)
        bulk_messages = [size for size in moved if size >= len(data)]
        assert len(bulk_messages) == 1

    def test_weak_hit_moves_no_bulk_data(self):
        from repro.core import CachingSuiteClient

        bed = Testbed(servers=["s1", "s2", "s3"], seed=7,
                      refresh_enabled=False)
        data = b"y" * 20_000
        config = triple_config()
        bed.install(config, data)
        client = CachingSuiteClient(bed.clients["client"].manager,
                                    config, metrics=bed.metrics)
        bed.run(client.read())  # populate
        moved = []
        original_send = bed.network.send

        def counting_send(source, destination, payload):
            moved.append(estimate_size(payload))
            original_send(source, destination, payload)

        bed.network.send = counting_send
        result = bed.run(client.read())  # cache hit
        bed.settle(5_000.0)
        assert result.served_by == "client-cache"
        assert all(size < 1_000 for size in moved), \
            "a cache hit must move only inquiry-sized messages"


class TestWriteCosts:
    def test_write_message_budget(self, quiet_bed):
        bed = quiet_bed
        suite = bed.install(triple_config(), b"x" * 1000)
        delta, result = message_delta(bed, suite.write(b"y" * 1000))
        assert len(result.quorum) == 2
        # 3 stats + 3 replies, 2 voting stages + 2 "prepared" replies
        # (phase 1 rides them), 1 release to the representative polled
        # but left out + its reply, phase 2 to the 2 writers = 2+2
        # → total 16.
        assert delta == message_cost(suite.config)["write"] == 16

    def test_data_moves_only_to_the_write_quorum(self, quiet_bed):
        bed = quiet_bed
        data = b"w" * 20_000
        suite = bed.install(triple_config(), b"small")
        moved = []
        original_send = bed.network.send

        def counting_send(source, destination, payload):
            moved.append((destination, estimate_size(payload)))
            original_send(source, destination, payload)

        bed.network.send = counting_send
        result = bed.run(suite.write(data))
        bed.settle(5_000.0)
        bulk_targets = {destination for destination, size in moved
                        if size >= len(data)}
        quorum_servers = {
            suite.config.representative(rep_id).server
            for rep_id in result.quorum}
        assert bulk_targets == quorum_servers


def requests_sent(bed, operation):
    """Run ``operation``; the ``(destination, method, args)`` of every
    request put on the wire meanwhile."""
    seen = watch_requests(bed)
    bed.run(operation)
    bed.settle(5_000.0)
    return [(destination, request.method, request.args)
            for destination, request in seen]


class TestWhoVotesWithItsStage:
    """Only a transaction that owns its single write lets the stage
    carry the vote; everything else keeps the explicit prepare round."""

    def test_suite_write_sends_one_release_and_no_vote_request(
            self, quiet_bed):
        suite = quiet_bed.install(triple_config(), b"v1")
        sent = requests_sent(quiet_bed, suite.write(b"v2"))
        stages = [args for _server, method, args in sent
                  if method == "txn.stage_write"]
        assert [(args["prepare"], args["answered"]) for args in stages] \
            == [(True, 1), (True, 1)]
        prepares = [(server, args) for server, method, args in sent
                    if method == "txn.prepare"]
        # The representative polled but left out: a release, not a vote.
        assert [server for server, _args in prepares] == ["s3"]
        assert "answered" not in prepares[0][1]

    def test_install_votes_with_its_stage(self, quiet_bed):
        sent = requests_sent(
            quiet_bed, _installing(quiet_bed, triple_config("fresh")))
        methods = sorted(method for _server, method, _args in sent)
        assert methods == ["txn.commit"] * 3 + ["txn.stage_write"] * 3

    def test_transact_keeps_the_explicit_prepare_round(self, quiet_bed):
        suite = quiet_bed.install(triple_config(), b"v1")

        def bump(txn):
            current = yield from suite.read_in(txn)
            return (yield from suite.write_in(txn, current.data + b"+"))

        sent = requests_sent(quiet_bed, suite.transact(bump))
        assert not any(args.get("prepare") for _s, _m, args in sent)
        prepares = {server: args["answered"]
                    for server, method, args in sent
                    if method == "txn.prepare"}
        # Every participant is asked, with the calls it has answered:
        # shared + exclusive inquiry everywhere, a stage at the quorum.
        assert prepares == {"s1": 3, "s2": 3, "s3": 2}
        assert quiet_bed.run(suite.read()).data == b"v1+"

    def test_violet_two_suite_transaction_keeps_it_too(self):
        from repro.core import make_configuration
        from repro.violet import MeetingScheduler, empty_calendar_data
        bed = Testbed(servers=["s1", "s2", "s3"], seed=17,
                      refresh_enabled=False)
        calendars = {
            user: bed.install(make_configuration(
                f"cal-{user}", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2),
                empty_calendar_data())
            for user in ("alice", "bob")}
        scheduler = MeetingScheduler(bed.clients["client"].manager,
                                     calendars)
        sent = requests_sent(bed, scheduler.schedule(
            "alice", ["bob"], "kickoff", 9.0, 10.0))
        assert not any(args.get("prepare") for _s, _m, args in sent)
        prepared = sorted(server for server, method, _args in sent
                          if method == "txn.prepare")
        assert prepared == ["s1", "s2", "s3"]
        staged = [server for server, method, _args in sent
                  if method == "txn.stage_write"]
        assert len(staged) == 4         # two suites, a quorum of two each

    def test_write_cost_formula(self):
        from repro.core import make_configuration
        five = make_configuration(
            "five", [(f"s{i}", 1) for i in range(1, 6)], 3, 3)
        # inquiry 2·5 + stage-and-vote 2·3 + release 2·(5 − 3) + commit 2·3
        assert message_cost(five)["write"] == 10 + 6 + 4 + 6
        bed = Testbed(servers=[f"s{i}" for i in range(1, 6)], seed=7,
                      refresh_enabled=False)
        suite = bed.install(five, b"v1")
        delta, _ = message_delta(bed, suite.write(b"v2"))
        assert delta == 26


def _installing(bed, config):
    from repro.core.suite import install_suite
    return install_suite(bed.clients["client"].manager, config, b"data")
