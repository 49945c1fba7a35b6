"""The invariant-checked namespace soak with a mid-run server join."""

import pytest

from repro.chaos.soak import ClusterSoakConfig, run_sim_soak
from repro.verification import check_history


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSoakConfig(ops=1)
        with pytest.raises(ValueError):
            ClusterSoakConfig(join_at=0.0)
        with pytest.raises(ValueError):
            ClusterSoakConfig(join_at=1.0)

    def test_spec_derivation(self):
        spec = ClusterSoakConfig(servers=4, suites=3, seed=9).spec()
        assert spec.servers == 4
        assert spec.suites == 3
        assert spec.seed == 9


class TestClusterSoak:
    def test_soak_with_join_passes_invariants(self):
        config = ClusterSoakConfig(seed=11)
        report = run_sim_soak(config)
        assert report.ok, report.summary()
        # The chaos policy actually interfered...
        assert report.chaos_stats["dropped"] > 0
        assert report.chaos_stats["delayed"] > 0
        # ...and the join actually rebalanced mid-run.
        assert report.plan is not None
        assert report.plan.moved_suites > 0
        assert "OK" in report.summary()
        assert "move" in report.summary()

    def test_every_suite_served_and_converged(self):
        config = ClusterSoakConfig(seed=11)
        report = run_sim_soak(config)
        assert set(report.reports) == set(config.spec().suite_names)
        for name, suite_report in report.reports.items():
            # Convergence reads ran on every suite after healing.
            assert suite_report.successful_reads >= config.final_reads
        # Moved suites carry the synthetic reconfiguration commit.
        moved = sorted(report.plan.moves)[0]
        kinds = [op.kind for op in report.histories[moved] if op.ok]
        assert "write" in kinds

    def test_deterministic_per_seed(self):
        one = run_sim_soak(ClusterSoakConfig(seed=7))
        two = run_sim_soak(ClusterSoakConfig(seed=7))
        assert one.ok and two.ok
        assert one.chaos_stats == two.chaos_stats
        assert one.elapsed_ms == two.elapsed_ms
        assert {n: r.summary() for n, r in one.reports.items()} == \
            {n: r.summary() for n, r in two.reports.items()}

    def test_soak_attributes_quorum_blocking(self):
        report = run_sim_soak(ClusterSoakConfig(seed=11))
        assert report.critical_path is not None
        assert report.critical_path.paths
        top = report.critical_path.top_blockers(1)
        assert top and top[0][1] > 0.0
        assert "top blocker" in report.summary()

    def test_checker_catches_seeded_corruption(self):
        """The invariant checker is live, not decorative: corrupt one
        recorded read and the verdict flips."""
        report = run_sim_soak(ClusterSoakConfig(seed=2))
        assert report.ok
        name = sorted(report.histories)[0]
        reads = [op for op in report.histories[name]
                 if op.kind == "read" and op.ok]
        reads[-1].version = 999
        damaged = check_history(
            report.histories[name],
            initial_tag=f"{name}:v1")
        assert not damaged.ok
