"""The quorum-closing rule, as a pure function and in the read path.

:class:`QuorumRule` decides when a version inquiry stops waiting: a
table of reply schedules (settle times, failures, breaker states, weak
representatives) maps to verdicts — close, wait until *t*, or hedge
the data fetch.  The known-answer tests then pin what the rule buys: a
dead preferred representative costs a grace, not an inquiry timeout.
"""

import pytest

from repro.chaos.health import CLOSED, HALF_OPEN, OPEN, HealthTracker
from repro.core import QuorumRule, Representative, make_configuration
from repro.obs.critical_path import QuorumPath, extract_quorum_paths
from repro.testbed import Testbed

S1 = Representative("rep-1", "s1", votes=1, latency_hint=10.0)
S2 = Representative("rep-2", "s2", votes=1, latency_hint=20.0)
S3 = Representative("rep-3", "s3", votes=1, latency_hint=30.0)
CACHE = Representative("cache", "c", votes=0, latency_hint=5.0)
FAR_CACHE = Representative("far-cache", "f", votes=0, latency_hint=50.0)
TRIPLE = (S1, S2, S3)


def stat(version, data=None):
    reply = {"version": version}
    if data is not None:
        reply["data"] = data
    return reply


def decide(reps, replies, now, breakers=None, read_data=True):
    """Run the rule over ``replies``: ``(rep, settled_at, stat|None)``
    in arrival order, ``None`` standing for a failed inquiry."""
    rule = QuorumRule(reps, 2, 0.0, breakers, read_data)
    order = [(rep, at, reply is not None) for rep, at, reply in replies]
    successes = {rep: reply for rep, at, reply in replies
                 if reply is not None}
    return rule, rule.verdict(order, successes, now)


#: (reps, breakers, read_data, replies, now) ->
#: (close, until, hedge rep_id, waited_on rep_id)
TABLE = {
    "no reply yet": (
        TRIPLE, None, True, [], 0.0,
        (False, None, None, None)),
    "votes short": (
        TRIPLE, None, True, [(S2, 2.0, stat(1))], 2.0,
        (False, None, None, None)),
    "votes short after a failure": (
        TRIPLE, None, True, [(S1, 2.0, None), (S2, 3.0, stat(1))], 3.0,
        (False, None, None, None)),
    "data-bearing reply closes": (
        TRIPLE, None, True,
        [(S2, 2.0, stat(1)), (S1, 3.0, stat(1, b"x"))], 3.0,
        (True, None, None, None)),
    "votes in, data rep out: wait for the grace": (
        TRIPLE, None, True, [(S2, 2.0, stat(1)), (S3, 2.0, stat(1))], 2.0,
        (False, 20.0, None, None)),
    "grace over: hedge to the cheapest current responder": (
        TRIPLE, None, True, [(S2, 2.0, stat(1)), (S3, 2.0, stat(1))], 20.0,
        (True, None, "rep-2", "rep-1")),
    "hedge skips a stale responder": (
        TRIPLE, None, True, [(S2, 2.0, stat(1)), (S3, 2.0, stat(2))], 20.0,
        (True, None, "rep-3", "rep-1")),
    "grace grows with a slow vote close": (
        TRIPLE, None, True, [(S2, 15.0, stat(1)), (S3, 16.0, stat(1))],
        16.0, (False, 32.0, None, None)),
    "failed data rep settles the wait": (
        TRIPLE, None, True,
        [(S2, 2.0, stat(1)), (S3, 2.0, stat(1)), (S1, 9.0, None)], 9.0,
        (True, None, None, None)),
    "no piggyback: votes close": (
        TRIPLE, None, False, [(S2, 2.0, stat(1)), (S3, 2.0, stat(1))], 2.0,
        (True, None, None, None)),
    "half-open probe never carries the data": (
        TRIPLE, {"s1": HALF_OPEN}, True,
        [(S2, 2.0, stat(1, b"x")), (S3, 2.0, stat(1))], 2.0,
        (True, None, None, None)),
    "open breaker: data moves to the next closed rep": (
        TRIPLE, {"s1": OPEN}, True, [(S3, 2.0, stat(1))], 2.0,
        (False, None, None, None)),
    "cheaper weak rep out: wait for it": (
        TRIPLE + (CACHE,), {"c": HALF_OPEN}, True,
        [(S1, 2.0, stat(1, b"x")), (S2, 2.0, stat(1))], 2.0,
        (False, 10.0, None, None)),
    "cheaper weak rep past the grace: give up on it, no hedge": (
        TRIPLE + (CACHE,), {"c": HALF_OPEN}, True,
        [(S1, 2.0, stat(1, b"x")), (S2, 2.0, stat(1))], 10.0,
        (True, None, None, "cache")),
    "weak rep slower than the best voter is not waited for": (
        TRIPLE + (FAR_CACHE,), None, True,
        [(S1, 2.0, stat(1, b"x")), (S2, 2.0, stat(1))], 2.0,
        (True, None, None, None)),
}


class TestQuorumRuleTable:
    @pytest.mark.parametrize("case", sorted(TABLE))
    def test_schedule_to_verdict(self, case):
        reps, breakers, read_data, replies, now, expected = TABLE[case]
        _rule, verdict = decide(reps, replies, now, breakers, read_data)
        got = (verdict.close, verdict.until,
               verdict.hedge.rep_id if verdict.hedge else None,
               verdict.waited_on.rep_id if verdict.waited_on else None)
        assert got == expected

    def test_the_rule_is_pure(self):
        replies = [(S2, 2.0, stat(1)), (S3, 2.0, stat(1))]
        assert decide(TRIPLE, replies, 5.0)[1] == \
            decide(TRIPLE, replies, 5.0)[1]

    def test_wake_is_what_the_gather_reads(self):
        replies = [(S2, 2.0, stat(1)), (S3, 2.0, stat(1))]
        assert decide(TRIPLE, replies, 2.0)[1].wake == 20.0
        assert decide(TRIPLE, replies, 20.0)[1].wake is True
        assert decide(TRIPLE, replies[:1], 2.0)[1].wake is False


class TestQuorumRulePlan:
    def test_data_rep_is_cheapest_closed(self):
        rule = QuorumRule(TRIPLE, 2, 0.0, {"s1": HALF_OPEN}, read_data=True)
        assert rule.data_rep is S2
        assert rule.polled == [S1, S2, S3] and rule.vetoed == []

    def test_open_breakers_are_vetoed_and_fail_fast(self):
        rule = QuorumRule(TRIPLE, 2, 0.0, {"s1": OPEN, "s2": OPEN})
        assert rule.vetoed == [S1, S2] and rule.polled == [S3]
        assert rule.attainable == 1

    def test_missing_breaker_is_closed(self):
        rule = QuorumRule(TRIPLE, 2, 0.0, {"s1": CLOSED}, read_data=True)
        assert rule.data_rep is S1 and rule.attainable == 3

    def test_no_data_rep_without_read_data(self):
        assert QuorumRule(TRIPLE, 2, 0.0).data_rep is None

    def test_serving_is_current_cheapest_first(self):
        successes = {S3: stat(2), S1: stat(1), S2: stat(2)}
        assert QuorumRule.serving(successes, 2) == [S2, S3]


class JournalSink:
    """Stands in for a flight recorder: keeps each ``quorum`` record."""

    closed = False

    def __init__(self):
        self.records = []

    def emit(self, kind, **data):
        self.records.append(data)


def dead_first_bed(hints, tracker):
    bed = Testbed(servers=["s1", "s2", "s3"], seed=11,
                  call_timeout=3_000.0)
    if tracker:
        bed.clients["client"].endpoint.health = HealthTracker(
            clock=lambda: bed.sim.now)
    config = make_configuration(
        "dead-first", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
        latency_hints=hints)
    suite = bed.install(config, b"v1")
    bed.run(suite.write(b"v2"))
    bed.crash("s1")
    return bed, suite


class TestDeadPreferredRepresentative:
    """With the piggyback target crashed, a read costs a grace and one
    hedged fetch — never the 3,000 ms inquiry timeout."""

    @pytest.mark.parametrize("hints", [
        None, {"s1": 10.0, "s2": 20.0, "s3": 30.0}])
    @pytest.mark.parametrize("tracker", [False, True])
    def test_twenty_reads_each_within_25_ms(self, hints, tracker):
        bed, suite = dead_first_bed(hints, tracker)
        for _ in range(20):
            started = bed.sim.now
            result = bed.run(suite.read())
            assert bed.sim.now - started <= 25.0
            assert result.version == 2 and result.data == b"v2"
            assert result.served_by in ("rep-s2", "rep-s3")

    def test_no_hints_read_takes_grace_plus_one_trip(self):
        bed, suite = dead_first_bed(None, False)
        started = bed.sim.now
        bed.run(suite.read())
        # Votes at 2 ms, grace to 4 ms, hedged txn.read back at 6 ms.
        assert bed.sim.now - started == 6.0
        assert bed.metrics.counter("suite.read_fallback").value == 1

    def test_grace_is_charged_to_the_dead_rep(self):
        bed, suite = dead_first_bed({"s1": 10.0, "s2": 20.0, "s3": 30.0},
                                    False)
        suite.flight = JournalSink()
        gauge = bed.metrics.gauge(
            "quorum.blocking.wait_ms[suite=dead-first,rep=rep-s1]")
        before, started = gauge.value, bed.sim.now
        bed.run(suite.read())
        # Votes at 2 ms, grace to 20 ms, the hedged txn.read back at
        # 22 ms: the rule waited on rep-s1 the whole time.
        path = QuorumPath.from_record(suite.flight.records[-1])
        assert path.order[-1] == ("rep-s1", started + 22.0, None)
        assert path.closed_by == "rep-s1"
        assert path.attribution() == {"rep-s1": 22.0}
        counted, waits = path.blocking()
        assert "quorum.blocking.closed[suite=dead-first,rep=rep-s1]" \
            in counted
        assert gauge.value - before == 22.0

    def test_deadline_survives_the_span_round_trip(self):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=11, obs=True)
        config = make_configuration(
            "traced", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2)
        suite = bed.install(config, b"v1")
        bed.crash("s1")
        bed.run(suite.read())
        path = extract_quorum_paths(bed.collector.spans())[-1]
        assert path.order[-1][0] == "rep-s1" and path.order[-1][2] is None
        assert path.closed_by == "rep-s1"


class TestHedge:
    """At the deadline the fetch is hedged, not the piggyback dropped:
    whichever current reply lands first serves the read."""

    def bulky_bed(self, byte_time):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=3,
                      refresh_enabled=False)
        config = make_configuration(
            "bulky", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
            latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0})
        suite = bed.install(config, b"d" * 4_096)
        bed.set_client_link("client", "s1", 1.0, byte_time=byte_time)
        return bed, suite

    def test_late_piggyback_still_serves(self):
        # s1's data-bearing reply lands just past the 20 ms grace, before
        # the hedged txn.read to s2 can return.
        bed, suite = self.bulky_bed(18.0 / 4_096)
        started = bed.sim.now
        result = bed.run(suite.read())
        assert result.served_by == "rep-s1"
        assert 20.0 < bed.sim.now - started < 22.0
        assert bed.metrics.counter("suite.read_fastpath").value == 1
        assert bed.metrics.counter("suite.read_fallback").value == 0

    def test_hedged_read_wins_over_a_very_late_piggyback(self):
        bed, suite = self.bulky_bed(200.0 / 4_096)
        started = bed.sim.now
        result = bed.run(suite.read())
        assert result.served_by == "rep-s2"
        assert bed.sim.now - started == 22.0
        assert bed.metrics.counter("suite.read_fallback").value == 1
