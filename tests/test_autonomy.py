"""The vote autopilot's scoring, safety gate, and control loop."""

import json

import pytest

from repro.autonomy import (AutopilotPolicy, RepSignals, WeightAutopilot,
                            collect_signals, gate_proposal, score_signals)
from repro.chaos.health import CLOSED, HALF_OPEN, OPEN, HealthTracker
from repro.core.reconfig import change_configuration
from repro.core.votes import make_configuration
from repro.sim.metrics import MetricsRegistry
from repro.testbed import Testbed

POLICY = AutopilotPolicy()


def _signals(**overrides) -> RepSignals:
    base = dict(rep_id="rep-s1", server="s1", votes=1)
    base.update(overrides)
    return RepSignals(**base)


class TestScoring:
    def test_open_breaker_alone_crosses_the_demote_threshold(self):
        score = score_signals(_signals(breaker_state=OPEN), POLICY,
                              num_reps=5)
        assert score >= POLICY.demote_threshold

    def test_half_open_counts_half(self):
        half = score_signals(_signals(breaker_state=HALF_OPEN), POLICY,
                             num_reps=5)
        full = score_signals(_signals(breaker_state=OPEN), POLICY,
                             num_reps=5)
        assert half == pytest.approx(full / 2)

    def test_healthy_representative_scores_zero(self):
        assert score_signals(_signals(), POLICY, num_reps=5) == 0.0

    def test_flap_term_saturates(self):
        two = score_signals(_signals(), POLICY, opens_delta=2,
                            num_reps=5)
        many = score_signals(_signals(), POLICY, opens_delta=50,
                             num_reps=5)
        assert two == pytest.approx(POLICY.flap_weight)
        assert many == two            # capped at one window's worth

    def test_lag_term_saturates_at_tolerance(self):
        at = score_signals(_signals(version_lag=POLICY.lag_tolerance),
                           POLICY, num_reps=5)
        beyond = score_signals(_signals(version_lag=100.0), POLICY,
                               num_reps=5)
        assert at == pytest.approx(POLICY.lag_weight)
        assert beyond == at

    def test_weak_staleness_counts_as_lag(self):
        """The version-lag gauge freezes for a demoted representative;
        the weak-staleness gauge keeps tracking it."""
        score = score_signals(
            _signals(weak_staleness=POLICY.lag_tolerance), POLICY,
            num_reps=5)
        assert score == pytest.approx(POLICY.lag_weight)

    def test_fair_blocking_share_is_not_evidence(self):
        score = score_signals(
            _signals(blocking_share=0.2, blocking_window_ms=1_000.0),
            POLICY, num_reps=5)
        assert score == 0.0

    def test_monopolised_blocking_crosses_the_threshold(self):
        score = score_signals(
            _signals(blocking_share=1.0, blocking_window_ms=1_000.0),
            POLICY, num_reps=5)
        assert score >= POLICY.demote_threshold

    def test_thin_window_discounts_the_blocking_share(self):
        """In a near-idle window somebody always arrives last and holds
        100% of the share — that is not evidence."""
        thin = score_signals(
            _signals(blocking_share=1.0, blocking_window_ms=50.0),
            POLICY, num_reps=5)
        fat = score_signals(
            _signals(blocking_share=1.0,
                     blocking_window_ms=POLICY.blocking_floor_ms),
            POLICY, num_reps=5)
        assert thin == pytest.approx(
            fat * 50.0 / POLICY.blocking_floor_ms)

    def test_single_representative_has_no_blocking_term(self):
        score = score_signals(
            _signals(blocking_share=1.0, blocking_window_ms=1_000.0),
            POLICY, num_reps=1)
        assert score == 0.0


class TestCollectSignals:
    def _config(self):
        return make_configuration("db", [("s1", 1), ("s2", 1),
                                         ("s3", 1)], 2, 2)

    def test_windowed_blocking_share(self):
        """Successive calls see deltas of the cumulative gauge, so a
        representative slow an hour ago but healthy now scores clean."""
        metrics = MetricsRegistry()
        config = self._config()
        gauge = "quorum.blocking.wait_ms[suite=db,rep=rep-s1]"
        metrics.gauge(gauge).set(400.0)
        previous = {}
        first = collect_signals(config, metrics, {}, previous)
        assert first["rep-s1"].blocking_share == pytest.approx(1.0)
        assert first["rep-s1"].blocking_window_ms == pytest.approx(400.0)
        # No new blocking: the share evaporates with the window.
        second = collect_signals(config, metrics, {}, previous)
        assert second["rep-s1"].blocking_share == 0.0
        assert second["rep-s1"].blocking_window_ms == 0.0

    def test_breaker_snapshot_is_folded_in(self):
        metrics = MetricsRegistry()
        snapshot = {"s2": {"state": OPEN, "opens": 3, "closes": 2,
                           "last_transition": 17.0}}
        signals = collect_signals(self._config(), metrics, snapshot, {})
        assert signals["rep-s2"].breaker_state == OPEN
        assert signals["rep-s2"].opens == 3
        assert signals["rep-s1"].breaker_state == CLOSED


class TestSafetyGate:
    def _config(self, votes=(1, 1, 1), r=2, w=2):
        servers = [f"s{i + 1}" for i in range(len(votes))]
        return make_configuration("db", list(zip(servers, votes)), r, w)

    def test_accepts_a_conserved_shift(self):
        config = self._config((1, 1, 1, 1, 1), r=3, w=3)
        votes = {"rep-s1": 2, "rep-s2": 1, "rep-s3": 1, "rep-s4": 0,
                 "rep-s5": 1}
        assert gate_proposal(config, votes, POLICY) is None

    def test_rejects_unknown_representatives(self):
        reason = gate_proposal(self._config(), {"rep-s9": 1}, POLICY)
        assert "unknown" in reason

    def test_rejects_negative_votes(self):
        votes = {"rep-s1": -1, "rep-s2": 2, "rep-s3": 2}
        assert "negative" in gate_proposal(self._config(), votes, POLICY)

    def test_rejects_an_emptied_suite(self):
        votes = {"rep-s1": 0, "rep-s2": 0, "rep-s3": 0}
        assert "no votes" in gate_proposal(self._config(), votes, POLICY)

    def test_rejects_quorum_outside_total(self):
        votes = {"rep-s1": 1, "rep-s2": 0, "rep-s3": 0}
        reason = gate_proposal(self._config(), votes, POLICY)
        assert "outside" in reason

    def test_rejects_read_write_coverage_loss(self):
        """Inflating the total so r + w no longer exceeds it would let
        a read quorum miss the latest write."""
        votes = {"rep-s1": 3, "rep-s2": 1, "rep-s3": 1}
        reason = gate_proposal(self._config(), votes, POLICY)
        assert "r + w" in reason

    def test_rejects_disjoint_write_quorums(self):
        config = self._config(r=3, w=2)
        votes = {"rep-s1": 2, "rep-s2": 1, "rep-s3": 1}
        reason = gate_proposal(config, votes, POLICY)
        assert "2w" in reason

    def test_rejects_below_the_survivability_floor(self):
        policy = AutopilotPolicy(min_voting_reps=3)
        votes = {"rep-s1": 2, "rep-s2": 1, "rep-s3": 0}
        reason = gate_proposal(self._config(), votes, policy)
        assert "floor" in reason

    def test_gate_is_pure(self):
        config = self._config()
        votes = {"rep-s1": 1, "rep-s2": 1, "rep-s3": 1}
        gate_proposal(config, votes, POLICY)
        assert votes == {"rep-s1": 1, "rep-s2": 1, "rep-s3": 1}


def _bed_with_autopilot(policy=None, votes=(1, 1, 1, 1, 1), r=3, w=3,
                        health=False, seed=1):
    servers = [f"s{i + 1}" for i in range(len(votes))]
    bed = Testbed(servers, seed=seed, obs=True)
    config = make_configuration(
        "db", list(zip(servers, votes)), r, w,
        latency_hints={name: float(i + 1)
                       for i, name in enumerate(servers)})
    tracker = None
    if health:
        tracker = HealthTracker(clock=lambda: bed.sim.now,
                                metrics=bed.metrics)
        bed.clients["client"].endpoint.health = tracker
    suite = bed.install(config, b"seed")
    autopilot = WeightAutopilot(suite, policy=policy)
    return bed, suite, autopilot, tracker


def _blame(bed, rep_id, ms=500.0):
    """Attribute ``ms`` fresh blocking milliseconds to ``rep_id``."""
    gauge = bed.metrics.gauge(
        f"quorum.blocking.wait_ms[suite=db,rep={rep_id}]")
    gauge.set(gauge.value + ms)


class TestAutopilotControl:
    def test_demotes_after_patience_and_conserves_votes(self):
        bed, suite, autopilot, _ = _bed_with_autopilot()
        records = []
        for _ in range(2):
            _blame(bed, "rep-s4")
            records.append(bed.run(autopilot.step()))
        assert records[0] is None          # patience: one sample never moves votes
        record = records[1]
        assert record.kind == "demote" and record.applied
        assert record.server == "s4"
        weights = autopilot.weights()
        assert weights["rep-s4"] == 0
        assert sum(weights.values()) == 5  # votes conserved
        assert suite.config.config_version == 2
        # The suite still serves reads under the shifted weights.
        result = bed.run(suite.read())
        assert result.data == b"seed"

    def test_quiet_observation_resets_the_streak(self):
        bed, _suite, autopilot, _ = _bed_with_autopilot()
        _blame(bed, "rep-s4")
        bed.run(autopilot.step())
        bed.run(autopilot.step())          # no new blocking this window
        _blame(bed, "rep-s4")
        assert bed.run(autopilot.step()) is None
        assert autopilot.at_seed_weights()
        assert autopilot.records == []

    def test_cooldown_blocks_back_to_back_shifts(self):
        bed, _suite, autopilot, _ = _bed_with_autopilot()
        for _ in range(2):
            _blame(bed, "rep-s4")
            bed.run(autopilot.step())
        assert not autopilot.at_seed_weights()
        # A second representative goes just as bad, but the cooldown
        # holds further reassignment.
        for _ in range(2):
            _blame(bed, "rep-s5")
            assert bed.run(autopilot.step()) is None
        assert autopilot.weights()["rep-s5"] == 1

    def test_restores_to_seed_after_recovery(self):
        policy = AutopilotPolicy(cooldown_ms=0.0)
        bed, _suite, autopilot, _ = _bed_with_autopilot(policy=policy)
        for _ in range(2):
            _blame(bed, "rep-s4")
            bed.run(autopilot.step())
        assert autopilot.weights()["rep-s4"] == 0
        # Quiet windows: the demoted representative proves itself.
        restored = None
        for _ in range(3):
            restored = bed.run(autopilot.step())
            if restored is not None:
                break
        assert restored is not None and restored.kind == "restore"
        assert restored.applied
        assert autopilot.at_seed_weights()
        assert autopilot.suite.config.config_version == 3

    def test_gate_rejection_is_recorded_not_applied(self):
        policy = AutopilotPolicy(min_voting_reps=5)
        bed, suite, autopilot, _ = _bed_with_autopilot(policy=policy)
        for _ in range(2):
            _blame(bed, "rep-s4")
            record = bed.run(autopilot.step())
        assert record is not None and not record.applied
        assert "floor" in record.rejected_by_gate
        assert autopilot.at_seed_weights()
        assert suite.config.config_version == 1
        state = autopilot.state()
        assert state["rejected_gate"] == 1 and state["applied"] == 0

    def test_open_breaker_drives_a_demotion(self):
        bed, _suite, autopilot, tracker = _bed_with_autopilot(health=True)
        for _ in range(3):
            tracker.record_failure("s3")
        assert tracker.state("s3") == OPEN
        bed.run(autopilot.step())
        record = bed.run(autopilot.step())
        assert record is not None and record.applied
        assert record.kind == "demote" and record.server == "s3"
        assert "s3" in autopilot.flagged

    def test_open_breaker_never_receives_votes(self):
        bed, _suite, autopilot, tracker = _bed_with_autopilot(health=True)
        for server in ("s1", "s3"):
            for _ in range(3):
                tracker.record_failure(server)
        for _ in range(2):
            _blame(bed, "rep-s3", 800.0)
            record = bed.run(autopilot.step())
        assert record is not None and record.applied
        recipient = [rep_id for rep_id, votes
                     in autopilot.weights().items() if votes == 2]
        assert recipient and recipient[0] not in ("rep-s1", "rep-s3")

    def test_flagged_history_survives_recovery(self):
        policy = AutopilotPolicy(cooldown_ms=0.0)
        bed, _suite, autopilot, _ = _bed_with_autopilot(policy=policy)
        for _ in range(2):
            _blame(bed, "rep-s4")
            bed.run(autopilot.step())
        while not autopilot.at_seed_weights():
            bed.run(autopilot.step())
        # Diagnostic history for the doctor: the flag is not erased by
        # the restoration.
        assert autopilot.flagged["s4"]["rep_id"] == "rep-s4"

    def test_manual_membership_change_rebaselines(self):
        bed = Testbed(["s1", "s2", "s3", "s4"], seed=1, obs=True)
        suite = bed.install(
            make_configuration("db", [("s1", 1), ("s2", 1), ("s3", 1)],
                               2, 2), b"seed")
        autopilot = WeightAutopilot(suite)
        grown = make_configuration(
            "db", [("s1", 1), ("s2", 1), ("s3", 1), ("s4", 1)], 3, 3)
        bed.run(change_configuration(suite, grown))
        autopilot.observe()
        assert autopilot.seed_votes == {
            "rep-s1": 1, "rep-s2": 1, "rep-s3": 1, "rep-s4": 1}
        assert autopilot.at_seed_weights()

    def test_state_is_json_safe_and_complete(self):
        bed, _suite, autopilot, _ = _bed_with_autopilot()
        for _ in range(2):
            _blame(bed, "rep-s4")
            bed.run(autopilot.step())
        state = json.loads(json.dumps(autopilot.state()))
        assert state["suite"] == "db"
        assert state["applied"] == 1
        assert state["at_seed_weights"] is False
        assert state["seed_votes"] != state["weights"]
        (record,) = state["reassignments"]
        assert record["kind"] == "demote" and record["applied"]
        assert record["config_version"] == 2

    def test_same_script_same_records(self):
        outcomes = []
        for _ in range(2):
            bed, _suite, autopilot, _ = _bed_with_autopilot(
                policy=AutopilotPolicy(cooldown_ms=0.0), seed=9)
            for _ in range(2):
                _blame(bed, "rep-s2")
                bed.run(autopilot.step())
            for _ in range(3):
                bed.run(autopilot.step())
            outcomes.append([record.to_json()
                             for record in autopilot.records])
        assert outcomes[0] == outcomes[1]
        assert [record["kind"] for record in outcomes[0]] == \
            ["demote", "restore"]
