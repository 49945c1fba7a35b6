"""Nemesis scripts and invariant-checked soaks on both runtimes."""

import asyncio

import pytest

from repro.chaos import (ChaosPolicy, NemesisScript, NemesisStep,
                         markov_nemesis, random_nemesis)
from repro.chaos.soak import SoakConfig, run_live_soak, run_sim_soak
from repro.sim.rng import RandomStreams
from repro.txn.coordinator import Transaction


class TestNemesisScripts:
    def test_steps_are_sorted_and_horizon_extends(self):
        script = NemesisScript([NemesisStep(50.0, "heal"),
                                NemesisStep(10.0, "crash", ("s1",))],
                               horizon=20.0)
        assert [step.at for step in script] == [10.0, 50.0]
        assert script.horizon == 50.0

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            NemesisStep(0.0, "meteor", ("s1",))

    def test_random_nemesis_is_deterministic(self):
        one = random_nemesis(["s1", "s2", "s3"], seed=5, horizon=20_000)
        two = random_nemesis(["s1", "s2", "s3"], seed=5, horizon=20_000)
        assert one.steps == two.steps

    def test_random_nemesis_respects_the_disruption_budget(self):
        """Replaying any prefix never leaves more than max_down
        representatives crashed or isolated in a minority group."""
        servers = [f"s{i}" for i in range(1, 6)]
        script = random_nemesis(servers, seed=9, horizon=60_000,
                                mean_interval=400.0)
        max_down = (len(servers) - 1) // 2
        down = set()
        minority = set()
        for step in script:
            if step.action == "crash":
                down.update(step.targets)
            elif step.action == "restart":
                down.difference_update(step.targets)
            elif step.action == "partition":
                minority = set(step.groups[1])
            else:
                minority = set()
            assert len(down) + len(minority - down) <= max_down, \
                step.describe()
        # The script's tail repairs everything.
        assert not down and not minority

    def test_random_nemesis_ends_healed(self):
        script = random_nemesis(["s1", "s2", "s3"], seed=3,
                                horizon=30_000, mean_interval=300.0)
        crashed = set()
        partitioned = False
        for step in script:
            if step.action == "crash":
                crashed.update(step.targets)
            elif step.action == "restart":
                crashed.difference_update(step.targets)
            elif step.action == "partition":
                partitioned = True
            elif step.action == "heal":
                partitioned = False
        assert not crashed and not partitioned

    def test_markov_nemesis_alternates_and_repairs(self):
        script = markov_nemesis(["s1", "s2"], availability=0.9,
                                mttr=500.0, horizon=30_000, seed=4)
        state = {"s1": "up", "s2": "up"}
        for step in script:
            (target,) = step.targets
            if step.action == "crash":
                assert state[target] == "up", step.describe()
                state[target] = "down"
            else:
                assert state[target] == "down", step.describe()
                state[target] = "up"
        assert all(value == "up" for value in state.values())

    def test_markov_nemesis_matches_failure_process_streams(self):
        """Each server draws from its own failures:<name> stream: the
        first crash time equals the first expovariate draw from it."""
        script = markov_nemesis(["s1"], availability=0.9, mttr=1_000.0,
                                horizon=10**9, seed=8)
        rng = RandomStreams(seed=8).stream("failures:s1")
        mtbf = 1_000.0 * 0.9 / 0.1
        first = rng.expovariate(1.0 / mtbf)
        assert script.steps[0].at == pytest.approx(first)
        assert script.steps[0].action == "crash"


class TestSimSoak:
    def test_small_soak_holds_invariants(self):
        report = run_sim_soak(SoakConfig(ops=40, seed=2))
        assert report.ok, report.report.violations
        assert report.runtime == "sim"
        assert report.report.committed_writes > 0
        assert report.report.successful_reads > 0
        # The nemesis actually did something.
        assert report.nemesis_steps > 0

    def test_same_seed_same_history(self):
        one = run_sim_soak(SoakConfig(ops=30, seed=6))
        two = run_sim_soak(SoakConfig(ops=30, seed=6))
        assert [(op.kind, op.ok, op.version, op.tag)
                for op in one.history] == \
            [(op.kind, op.ok, op.version, op.tag)
             for op in two.history]
        assert one.chaos_stats == two.chaos_stats

    def test_different_seeds_diverge(self):
        one = run_sim_soak(SoakConfig(ops=30, seed=6))
        two = run_sim_soak(SoakConfig(ops=30, seed=7))
        assert [(op.kind, op.version) for op in one.history] != \
            [(op.kind, op.version) for op in two.history]

    def test_final_reads_observe_the_last_committed_version(self):
        config = SoakConfig(ops=30, seed=2)
        report = run_sim_soak(config)
        tail = report.history[-config.final_reads:]
        assert all(op.kind == "read" and op.ok for op in tail)
        assert {op.version for op in tail} == \
            {report.report.final_version}

    def test_planted_version_reuse_is_caught(self, monkeypatch):
        """A write path that numbers its version ``max`` instead of
        ``max + 1`` commits a number already taken; the same seed is
        clean without the mutation."""
        config = SoakConfig(ops=100, seed=4)
        assert run_sim_soak(config).ok
        ballot = Transaction._ballot

        def reuse(self, server, settled):
            # Each vote counts one version low, so the commit numbers
            # the write with the highest version already taken.
            if settled.triggered and self.number is None:
                settled.value["version"] -= 1
            ballot(self, server, settled)

        monkeypatch.setattr(Transaction, "_ballot", reuse)
        report = run_sim_soak(config)
        assert not report.ok
        assert "unique-version" in report.verdict

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SoakConfig(reps=2)
        with pytest.raises(ValueError):
            SoakConfig(ops=0)


class TestLiveSoak:
    """Wall-clock soaks, kept tiny: the nemesis horizon bounds runtime."""

    def test_live_soak_holds_invariants_and_matches_sim_verdict(self):
        config = SoakConfig(ops=12, seed=3, horizon=1_500.0,
                            mean_interval=400.0)
        live = asyncio.run(run_live_soak(config))
        assert live.ok, live.report.violations
        assert live.runtime == "live"
        sim = run_sim_soak(config)
        assert sim.ok, sim.report.violations
        # The acceptance bar: same seed + same nemesis script replayed
        # on the simulator produces the identical verdict.
        assert live.verdict == sim.verdict == "OK"

    def test_live_soak_records_breaker_activity_shape(self):
        config = SoakConfig(ops=8, seed=5, horizon=1_200.0,
                            mean_interval=300.0)
        report = asyncio.run(run_live_soak(config))
        assert report.ok, report.report.violations
        for state in report.breakers.values():
            assert state["state"] in ("closed", "open", "half-open")
