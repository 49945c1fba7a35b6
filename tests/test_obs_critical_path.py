"""Quorum critical-path reconstruction and blocking attribution."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.policy import ChaosPolicy
from repro.core import make_configuration
from repro.core.gather import GatherResult
from repro.core.votes import Representative
from repro.obs.critical_path import (CriticalPathReport, QuorumPath,
                                     analyze_quorum_paths,
                                     attribution_from_samples,
                                     extract_phase_laggards,
                                     extract_quorum_paths)
from repro.obs.prom import parse_exposition, render_registry
from repro.sim import RandomStreams
from repro.testbed import Testbed


class TestAttributionMath:
    def test_marginal_intervals_charge_the_closing_rep(self):
        path = QuorumPath(
            suite="s", mode="read", threshold=2, votes=2, satisfied=True,
            started=2.0, order=[("a", 5.0, True), ("b", 8.0, True)],
            closed_by="b", observed={}, trace_id="t", waited=6.0)
        assert path.attribution() == {"a": 3.0, "b": 3.0}

    def test_zero_marginal_intervals_are_not_charged(self):
        path = QuorumPath(
            suite="s", mode="read", threshold=2, votes=2, satisfied=True,
            started=1.0, order=[("a", 5.0, True), ("b", 5.0, True)],
            closed_by="a", observed={}, trace_id="t", waited=4.0)
        # a ends the first interval; b arrives simultaneously and adds
        # no marginal wait.
        assert path.attribution() == {"a": 4.0}

    def test_report_folds_closes_and_shares(self):
        paths = [
            QuorumPath("s", "read", 2, 2, True, 0.0,
                       [("a", 4.0, True), ("b", 10.0, True)],
                       closed_by="b", observed={}, trace_id="t1",
                       waited=10.0),
            QuorumPath("s", "write", 1, 1, True, 0.0, [("a", 6.0, True)],
                       closed_by="a", observed={}, trace_id="t2",
                       waited=6.0),
        ]
        report = CriticalPathReport(paths=paths)
        assert report.total_blocked_ms == pytest.approx(16.0)
        assert report.rep_blocked_ms() == {"a": 10.0, "b": 6.0}
        assert report.rep_closes() == {"a": 1, "b": 1}
        share = report.blocking_share()
        assert share["a"] == pytest.approx(10.0 / 16.0)
        top = report.top_blockers(2)
        assert top[0][0] == "a"
        breakdown = report.suite_breakdown()
        assert breakdown["s"]["read"]["operations"] == 1.0
        assert breakdown["s"]["read"]["mean_wait_ms"] == 10.0

    def test_render_mentions_top_blocker(self):
        report = CriticalPathReport(paths=[
            QuorumPath("s", "read", 1, 1, True, 0.0, [("a", 5.0, True)],
                       closed_by="a", observed={}, trace_id="t",
                       waited=5.0)])
        text = report.render()
        assert "1 operations" in text
        assert "a: blocked 5.0 ms" in text


def reference_increments(suite, mode, started, order, closed_by):
    """Brute-force statement of the blocking rule, kept apart from the
    implementation: a reply is charged the time from the latest earlier
    settle — earlier by ``(at, rep_id)``, the inquiry send counting as
    the first — when that time is positive."""
    waits = {}
    for rep, at, _ok in order:
        earlier = [other_at for other, other_at, _ in order
                   if (other_at, other) < (at, rep)]
        charged = at - max(earlier + [started])
        if charged > 0.0:
            waits[f"quorum.blocking.wait_ms[suite={suite},rep={rep}]"] = \
                charged
    counted = [f"quorum.blocking.gathers[suite={suite},mode={mode}]"]
    if closed_by is not None:
        counted.append(
            f"quorum.blocking.closed[suite={suite},rep={closed_by}]")
    return counted, waits


@st.composite
def gathers(draw):
    """A finished gather: replies in arrival order, drawn from a few
    instants so same-instant ties are common; some fail; the gather may
    be unsatisfied, pre-satisfied (empty order) or closed by its last
    reply."""
    started = float(draw(st.integers(min_value=0, max_value=4)))
    reps = draw(st.lists(st.sampled_from("abcdef"), unique=True,
                         max_size=6))
    timed = [(started + draw(st.integers(min_value=0, max_value=3)),
              draw(st.integers()), rep, draw(st.booleans()))
             for rep in reps]
    timed.sort(key=lambda item: (item[0], item[1]))    # random tie order
    keys = {rep: Representative(rep, f"srv-{rep}",
                                draw(st.integers(min_value=0,
                                                 max_value=2)))
            for rep in reps}
    order = [(keys[rep], at, ok) for at, _tie, rep, ok in timed]
    satisfied = draw(st.booleans())
    closed_by = order[-1][0] if satisfied and order else None
    successes = {rep: {"version": draw(st.integers(min_value=1,
                                                   max_value=9))}
                 for rep, _at, ok in order if ok}
    failures = {rep: TimeoutError() for rep, _at, ok in order if not ok}
    return started, GatherResult(successes, failures, satisfied, order,
                                 closed_by)


class TestOneRule:
    @settings(max_examples=300, deadline=None)
    @given(gathers(), st.sampled_from(["read", "write"]))
    def test_rule_matches_reference_and_record_round_trips(self, drawn,
                                                           mode):
        started, gathered = drawn
        path = QuorumPath.from_gather("s", mode, 2, started, gathered)
        order = [(rep.rep_id, at, ok) for rep, at, ok in gathered.order]
        closer = gathered.closed_by
        assert path.order == order
        assert path.votes == sum(rep.votes for rep in gathered.successes)
        assert path.closed_by == (closer.rep_id if closer else None)
        counted, waits = reference_increments(
            "s", mode, started, order, path.closed_by)
        assert path.blocking() == (counted, waits)
        assert path.attribution() == {
            name.split("rep=")[1][:-1]: wait
            for name, wait in waits.items()}
        assert QuorumPath.from_record(path.to_record()) == path
        journaled = json.loads(json.dumps(path.to_record()))
        assert QuorumPath.from_record(journaled) == path


def traced_bed(slow_server=None, delay_ms=30.0, seed=5):
    """A 3-server testbed with tracing on and r = w = 3 quorums."""
    bed = Testbed(servers=["s1", "s2", "s3"], seed=seed, obs=True)
    if slow_server is not None:
        policy = ChaosPolicy(streams=RandomStreams(seed=seed))
        policy.slow_host(slow_server, delay_ms)
        bed.network.chaos = policy
    config = make_configuration(
        "cp", [("s1", 1), ("s2", 1), ("s3", 1)], 3, 3,
        latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0})
    suite = bed.install(config, b"cp:v1")
    return bed, suite


class TestTraceExtraction:
    def test_every_operation_yields_one_path(self):
        bed, suite = traced_bed()
        for index in range(4):
            bed.run(suite.read())
        bed.run(suite.write(b"cp:v2"))
        paths = extract_quorum_paths(bed.collector.spans())
        assert len(paths) == 5
        for path in paths:
            assert path.satisfied
            assert path.suite == "cp"
            assert len(path.order) == 3
            # Arrival order is sorted and the closer is one of the
            # repliers.
            ats = [at for _rep, at, _ok in path.order]
            assert ats == sorted(ats)
            assert path.closed_by in {rep for rep, _at, _ok in path.order}

    def test_slowed_server_dominates_attribution(self):
        bed, suite = traced_bed(slow_server="s2")
        for index in range(6):
            if index % 2:
                bed.run(suite.write(b"cp:w%d" % index))
            else:
                bed.run(suite.read())
        report = analyze_quorum_paths(bed.collector.spans())
        top_rep, blocked, closes = report.top_blockers(1)[0]
        assert top_rep == "rep-s2"
        assert report.blocking_share()["rep-s2"] > 0.5
        # With r = w = N the slowed rep's reply closes every quorum.
        assert closes == report.rep_closes()["rep-s2"]

    def test_phase_laggards_counted_per_server(self):
        bed, suite = traced_bed(slow_server="s2")
        for index in range(3):
            bed.run(suite.write(b"cp:w%d" % index))
        laggards = extract_phase_laggards(bed.collector.spans())
        # One commit round per write, always gated by the slow server;
        # a suite write has no prepare round to lag in.
        assert laggards == {"s2": 3}

    def test_phase_laggards_of_a_callers_transaction_count_both_rounds(
            self):
        bed, suite = traced_bed(slow_server="s2")
        root = bed.collector.start_trace("app.bump")

        def bump(txn):
            txn.span = root
            return (yield from suite.write_in(txn, b"cp:w"))

        bed.run(suite.transact(bump))
        assert extract_phase_laggards(bed.collector.spans()) == {"s2": 2}

    def test_deterministic_across_reruns(self):
        def run():
            bed, suite = traced_bed(slow_server="s3", seed=9)
            for index in range(5):
                bed.run(suite.read())
            report = analyze_quorum_paths(bed.collector.spans())
            return (report.top_blockers(3),
                    sorted(report.rep_blocked_ms().items()))

        assert run() == run()


class TestOnlineCounters:
    def test_metrics_plane_matches_trace_plane(self):
        bed, suite = traced_bed(slow_server="s2")
        for index in range(8):
            bed.run(suite.read())
        trace_report = analyze_quorum_paths(bed.collector.spans())
        online = attribution_from_samples(
            parse_exposition(render_registry(bed.metrics)))
        assert (online.top_blockers(1)[0][0]
                == trace_report.top_blockers(1)[0][0])
        # Both planes attribute the same milliseconds (the gather feeds
        # the counters from the same settle order the events record).
        assert online.rep_blocked_ms() == pytest.approx(
            trace_report.rep_blocked_ms())

    def test_from_samples_decodes_families(self):
        samples = [
            ("repro_quorum_blocking_wait_ms",
             {"suite": "a", "rep": "r1"}, 120.0),
            ("repro_quorum_blocking_wait_ms",
             {"suite": "a", "rep": "r2"}, 40.0),
            ("repro_quorum_blocking_closed_total",
             {"suite": "a", "rep": "r1"}, 7.0),
            ("repro_quorum_blocking_gathers_total",
             {"suite": "a", "mode": "read"}, 9.0),
            ("repro_quorum_blocking_wait_ms_max",      # gauge _max: skip
             {"suite": "a", "rep": "r1"}, 999.0),
            ("repro_unrelated_total", {}, 5.0),
        ]
        report = attribution_from_samples(samples)
        assert report.rep_blocked_ms() == {"r1": 120.0, "r2": 40.0}
        assert report.rep_closes() == {"r1": 7}
        assert report.operations == {("a", "read"): 9}
        assert "r1" in report.render()
