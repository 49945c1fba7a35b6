"""The vote autopilot's planner, evidence, safety gate and control
loop."""

import json

import pytest

from repro.autonomy import (AutopilotPolicy, WeightAutopilot,
                            collect_profiles, gate_proposal, plan_move)
from repro.chaos.health import OPEN
from repro.core.reconfig import change_configuration
from repro.core.tuning import ServerProfile
from repro.core.votes import make_configuration
from repro.sim.metrics import MetricsRegistry
from repro.testbed import Testbed

POLICY = AutopilotPolicy()
SEED = {f"rep-s{i}": 1 for i in range(1, 6)}


def _config(votes=(1, 1, 1, 1, 1), r=3, w=3):
    servers = [f"s{i + 1}" for i in range(len(votes))]
    return make_configuration("db", list(zip(servers, votes)), r, w)


def _profiles(latency=None, down=(), timeout=1_000.0):
    """Five servers, 1 ms each unless ``latency`` says otherwise;
    ``down`` ones profiled as their breaker-history evidence has it."""
    latency = latency or {}
    flip = len(down) / 5
    return [ServerProfile(name, latency=timeout, availability=flip)
            if name in down else
            ServerProfile(name, latency=latency.get(name, 1.0),
                          availability=1.0 - flip)
            for name in ("s1", "s2", "s3", "s4", "s5")]


class TestPlanner:
    """``plan_move`` is a pure function of one window's profiles."""

    @pytest.mark.parametrize("r,w,evidence", [
        (5, 5, dict(latency={"s4": 60.0})),       # slow, gating quorums
        (3, 3, dict(down=("s4",))),              # unavailable
    ])
    def test_bad_representative_loses_a_vote_conserving_share(
            self, r, w, evidence):
        config = _config(r=r, w=w)
        move = plan_move(config, _profiles(**evidence), 0.7, SEED,
                         blocked_cost=1_000.0)
        assert move.kind == "demote" and move.rep_id == "rep-s4"
        assert move.votes["rep-s4"] == 0
        assert sum(move.votes.values()) == 5
        assert move.gain_ms > 0
        assert gate_proposal(config, move.votes, POLICY) is None

    def test_equal_profiles_keep_or_restore_the_seed_weights(self):
        assert plan_move(_config(), _profiles(), 0.7, SEED,
                         blocked_cost=1_000.0) is None
        shifted = _config((2, 1, 1, 0, 1))
        move = plan_move(shifted, _profiles(), 0.7, SEED,
                         blocked_cost=1_000.0)
        assert move.kind == "restore" and move.rep_id == "rep-s4"
        assert move.votes == SEED

    @pytest.mark.parametrize("votes", [(1, 1, 1, 1, 1), (2, 1, 1, 0, 1),
                                       (1, 2, 1, 1, 0)])
    def test_open_breaker_never_receives_votes(self, votes):
        current = dict(zip(SEED, votes))
        for down in (("s2",), ("s4",), ("s2", "s4")):
            for slow in ("s1", "s3", "s5"):
                move = plan_move(
                    _config(votes), _profiles({slow: 200.0}, down), 0.7,
                    SEED, blocked_cost=1_000.0)
                if move is None:
                    continue
                for server in down:
                    rep_id = f"rep-{server}"
                    assert move.votes[rep_id] <= current[rep_id], \
                        (votes, down, slow, move)


class TestCollectSignals:
    def _config(self):
        return make_configuration("db", [("s1", 1), ("s2", 1),
                                         ("s3", 1)], 2, 2)

    def test_windowed_blocking_share(self):
        """Successive calls see deltas of the cumulative gauges, so a
        representative slow an hour ago but healthy now profiles
        clean."""
        metrics = MetricsRegistry()
        config = self._config()
        metrics.gauge("quorum.blocking.wait_ms[suite=db,rep=rep-s1]") \
            .set(400.0)
        metrics.counter("quorum.blocking.gathers[suite=db,mode=read]") \
            .increment(4)
        metrics.counter("suite.reads").increment(3)
        seen = {}
        first, read_fraction = collect_profiles(config, metrics, {}, seen,
                                                250.0)
        assert [profile.latency for profile in first] == [100.0, 0.0, 0.0]
        assert read_fraction == pytest.approx(4 / 5)
        # No new blocking: the evidence evaporates with the window.
        second, read_fraction = collect_profiles(config, metrics, {},
                                                 seen, 250.0)
        assert [profile.latency for profile in second] == [0.0, 0.0, 0.0]
        assert read_fraction == 0.5

    def test_breaker_snapshot_is_folded_in(self):
        metrics = MetricsRegistry()
        snapshot = {"s2": {"state": OPEN, "opens": 3, "closes": 2}}
        profiles, _ = collect_profiles(self._config(), metrics, snapshot,
                                       {}, 250.0)
        by_server = {profile.name: profile for profile in profiles}
        assert by_server["s2"].latency == 250.0
        assert by_server["s2"].availability == pytest.approx(1 / 3)
        assert by_server["s1"].availability == pytest.approx(2 / 3)
        # A window without breaker trouble prices no blocking at all.
        closed = {"s2": {"state": "closed", "opens": 3, "closes": 3}}
        seen = {"health.opens[server=s2]": 3.0}
        profiles, _ = collect_profiles(self._config(), metrics, closed,
                                       seen, 250.0)
        assert [profile.availability for profile in profiles] == \
            [1.0, 1.0, 1.0]


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


def _bed_with_autopilot(policy=None, votes=(1, 1, 1, 1, 1), r=5, w=5,
                        health=False, seed=1):
    """With ``r = w = N`` every representative gates every quorum, so
    blocking blamed on one is latency the planner can remove."""
    servers = [f"s{i + 1}" for i in range(len(votes))]
    bed = Testbed(servers, seed=seed, obs=True, breakers=health)
    config = make_configuration(
        "db", list(zip(servers, votes)), r, w,
        latency_hints={name: float(i + 1)
                       for i, name in enumerate(servers)})
    suite = bed.install(config, b"seed")
    autopilot = WeightAutopilot(suite, policy=policy)
    return bed, suite, autopilot, bed.clients["client"].endpoint.health


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
        shifted = autopilot.weights()
        # A second representative goes just as bad, but the cooldown
        # holds further reassignment.
        for _ in range(2):
            _blame(bed, "rep-s1")
            assert bed.run(autopilot.step()) is None
        assert autopilot.weights() == shifted

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
        bed, _suite, autopilot, tracker = _bed_with_autopilot(
            health=True, r=3, w=3)
        for _ in range(3):
            tracker.record_failure("s3")
        assert tracker.state("s3") == OPEN
        bed.run(autopilot.step())
        record = bed.run(autopilot.step())
        assert record is not None and record.applied
        assert record.kind == "demote" and record.server == "s3"
        assert "s3" in autopilot.flagged

    def test_open_breaker_never_receives_votes(self):
        bed, _suite, autopilot, tracker = _bed_with_autopilot(
            health=True, r=3, w=3)
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
