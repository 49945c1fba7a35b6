"""Autopilot soaks: known-answer degradation, nemesis schedules, and
the cluster-wide rollout — all invariant-checked."""

import asyncio

import pytest

from repro.chaos.soak import SoakConfig, run_live_soak, run_sim_soak
from repro.cluster.soak import ClusterSoakConfig, run_cluster_sim_soak


def _applied(state):
    return [record for record in state["reassignments"]
            if record["applied"]]


def _assert_feasible(state, read_quorum, write_quorum, floor):
    """Every applied reassignment kept Gifford's rules intact."""
    for record in _applied(state):
        before, after = record["votes_before"], record["votes_after"]
        total = sum(after.values())
        assert total == sum(before.values())          # votes conserved
        assert read_quorum + write_quorum > total
        assert 2 * write_quorum > total
        assert sum(1 for v in after.values() if v > 0) >= floor


class TestConfig:
    def test_degrade_server_must_exist(self):
        with pytest.raises(ValueError):
            SoakConfig(degrade_server="s9")

    def test_degrade_heals_halfway_by_default(self):
        assert SoakConfig(ops=100, degrade_server="s1") \
            .degrade_heal_index() == 50
        assert SoakConfig(ops=100).degrade_heal_index() is None

    def test_soak_floor_is_a_full_majority(self):
        """Repeated demotions can never leave the suite unable to lose
        one more server."""
        assert SoakConfig(reps=5).autopilot_policy().min_voting_reps == 3
        assert SoakConfig(reps=7).autopilot_policy().min_voting_reps == 4


class TestDegradeKnownAnswer:
    """The planted-slowdown scenario: the autopilot must shift votes
    off the degraded server while it is slow, and hand them back after
    it heals — without a single invariant violation."""

    CONFIG = SoakConfig(ops=120, seed=1, nemesis_kind="none",
                        autopilot=True, degrade_server="s4")

    def test_votes_shift_off_the_degraded_server(self):
        report = run_sim_soak(self.CONFIG)
        assert report.ok, report.report.violations
        state = report.autopilot
        assert any(record["kind"] == "demote"
                   and record["server"] == "s4"
                   for record in _applied(state))
        assert state["errors"] == 0

    def test_weights_restore_after_healing(self):
        report = run_sim_soak(self.CONFIG)
        state = report.autopilot
        assert state["at_seed_weights"], state["weights"]
        assert state["weights"] == state["seed_votes"]
        kinds = [record["kind"] for record in _applied(state)]
        assert "restore" in kinds

    def test_reassignments_are_feasible_and_flagged(self):
        report = run_sim_soak(self.CONFIG)
        state = report.autopilot
        _assert_feasible(state, self.CONFIG.majority,
                         self.CONFIG.majority, self.CONFIG.majority)
        assert "s4" in state["flagged"]

    def test_applied_reassignments_enter_the_checked_history(self):
        """A reassignment is a committed write at version current + 1;
        the synthetic record keeps the invariant checker's version
        chain gapless over it."""
        report = run_sim_soak(self.CONFIG)
        assert len(_applied(report.autopilot)) >= 2
        versions = [op.version for op in report.history
                    if op.kind == "write" and op.ok]
        assert versions == sorted(versions)
        assert report.ok

    def test_same_seed_same_reassignments(self):
        one = run_sim_soak(self.CONFIG)
        two = run_sim_soak(self.CONFIG)
        assert one.autopilot["reassignments"] == \
            two.autopilot["reassignments"]
        assert one.verdict == two.verdict == "OK"


class TestNemesisSoaks:
    """The autopilot riding along under crash/partition schedules: the
    gate and the old-quorum reconfiguration path must keep every
    invariant, whatever the nemesis does."""

    @pytest.mark.parametrize("kind,seed", [("random", 2),
                                           ("markov", 1)])
    def test_invariants_hold_with_autopilot(self, kind, seed):
        config = SoakConfig(ops=80, seed=seed, nemesis_kind=kind,
                            autopilot=True)
        report = run_sim_soak(config)
        assert report.ok, report.report.violations
        state = report.autopilot
        assert state["errors"] == 0
        _assert_feasible(state, config.majority, config.majority,
                         config.majority)

    def test_autopilot_state_lands_in_the_report(self):
        report = run_sim_soak(SoakConfig(ops=40, seed=2,
                                         autopilot=True))
        assert report.autopilot is not None
        assert "autopilot" in report.summary()
        # Without the autopilot the field stays empty.
        plain = run_sim_soak(SoakConfig(ops=40, seed=2))
        assert plain.autopilot is None


class TestClusterAutopilot:
    CONFIG = ClusterSoakConfig(seed=11, autopilot=True,
                               degrade_server="n2")

    def test_namespace_wide_rollout_holds_invariants(self):
        report = run_cluster_sim_soak(self.CONFIG)
        assert report.ok, report.summary()
        # One controller per suite, every one reported.
        assert set(report.autopilot) == \
            set(self.CONFIG.spec().suite_names)
        applied = sum(state["applied"]
                      for state in report.autopilot.values())
        assert applied > 0
        assert "autopilot" in report.summary()

    def test_every_suite_restores_to_seed(self):
        report = run_cluster_sim_soak(self.CONFIG)
        for name, state in report.autopilot.items():
            assert state["at_seed_weights"], (name, state["weights"])
            floor = self.CONFIG.autopilot_policy().min_voting_reps
            _assert_feasible(state, self.CONFIG.replication // 2 + 1,
                             self.CONFIG.replication // 2 + 1, floor)


class TestLiveKnownAnswer:
    """One wall-clock run: the same controller generator on the live
    kernel shifts votes off the degraded server over real sockets.

    The controller is stepped every 10 ops, and with s4's breaker open
    an op takes ~10 ms of wall clock, so two steps can fall inside one
    open → half-open cycle; the second then sees no new evidence
    (half-open, no fresh trip: score 0.5) and resets the hot streak.
    120 ops (the sim twin's count) keep s4 sick for six steps, not
    three, so a demotion does not hinge on where one step lands."""

    def test_live_degrade_shifts_votes(self):
        config = SoakConfig(ops=120, seed=1, nemesis_kind="none",
                            autopilot=True, degrade_server="s4",
                            horizon=1.0)
        report = asyncio.run(run_live_soak(config))
        assert report.ok, report.report.violations
        state = report.autopilot
        assert any(record["kind"] == "demote"
                   and record["server"] == "s4"
                   for record in _applied(state))
        _assert_feasible(state, config.majority, config.majority,
                         config.majority)
