"""Experiment A1 — the vote autopilot collapses degraded blocking.

With ``r = w = N`` every representative gates every quorum, so one
server slowed by +25 ms/message (below the call timeout: the breaker
never opens, and only the blocking-share signal carries the evidence)
holds nearly the whole attributed quorum wait.  The autopilot, stepped
between operations exactly as the soaks do, must notice, demote the
degraded representative to zero votes through the ordinary old-quorum
reconfiguration — total votes are conserved, so the ``r = w = 5``
quorums stay valid and simply assemble from the other four — and from
that point the degraded server is off every critical path.

The figure contrasts the degraded server's share of *new* blocking
milliseconds in a post-demotion window against the same window of the
identical seeded workload run without the autopilot.  Virtual-time
blocking attribution is deterministic, so every row gates.

The seed sweep runs the namespace-wide rollout
(``ClusterSoakConfig(autopilot=True)``) over seeds 5–16, once with
``n2`` degraded past every timeout and once healthy, and counts the
seeds on which any suite's votes shifted: the degraded sweep must
shift on at least 9 of 12, the healthy control on none.
"""

from _support import print_table, record
from repro.autonomy import AutopilotPolicy, WeightAutopilot
from repro.chaos.policy import ChaosPolicy
from repro.chaos.soak import ClusterSoakConfig, run_sim_soak
from repro.core import make_configuration
from repro.sim import RandomStreams
from repro.testbed import Testbed

SEED = 7
SLOW_SERVER = "s4"
SLOW_DELAY_MS = 25.0
STEP_EVERY = 10                  # autopilot cadence, ops per step
PILOT_OP_BUDGET = 120            # demotion must land inside this
WINDOW_OPS = 60                  # measurement window after the shift
SERVERS = ["s1", "s2", "s3", "s4", "s5"]
SUITE = "figa1"
SWEEP_SEEDS = range(5, 17)
SWEEP_DEGRADED = "n2"


def _build(with_autopilot: bool):
    bed = Testbed(servers=SERVERS, seed=SEED, obs=True)
    policy = ChaosPolicy(streams=RandomStreams(seed=SEED))
    policy.slow_host(SLOW_SERVER, SLOW_DELAY_MS)
    bed.network.chaos = policy
    config = make_configuration(
        SUITE, [(name, 1) for name in SERVERS], 5, 5,
        latency_hints={name: float(i + 1)
                       for i, name in enumerate(SERVERS)})
    suite = bed.install(config, b"a1 payload")
    autopilot = None
    if with_autopilot:
        # One demotion is the whole experiment: park the cooldown far
        # out so the measurement window holds exactly that state
        # (restoration dynamics are the soaks' subject, not A1's).
        autopilot = WeightAutopilot(
            suite, policy=AutopilotPolicy(cooldown_ms=10_000_000.0))
    return bed, suite, autopilot


def _one_op(bed, suite, index: int) -> None:
    if index % 10 < 7:                     # 70% reads, seeded by index
        bed.run(suite.read())
    else:
        bed.run(suite.write(b"a1 payload %d" % index))


def _cumulative_wait(bed) -> dict:
    return {name: bed.metrics.gauge_value(
        f"quorum.blocking.wait_ms[suite={SUITE},rep=rep-{name}]")
        for name in SERVERS}


def _window_share(bed, suite, start_index: int) -> dict:
    """Each representative's share of new blocking over WINDOW_OPS."""
    before = _cumulative_wait(bed)
    for offset in range(WINDOW_OPS):
        _one_op(bed, suite, start_index + offset)
    after = _cumulative_wait(bed)
    deltas = {name: after[name] - before[name] for name in SERVERS}
    total = sum(deltas.values())
    return {name: (delta / total if total > 0 else 0.0)
            for name, delta in deltas.items()}


def run_autopilot_figure():
    # Run 1: autopilot on.  Drive until the demotion lands.
    bed_on, suite_on, autopilot = _build(with_autopilot=True)
    started = bed_on.sim.now
    demote_at_ops = None
    for index in range(PILOT_OP_BUDGET):
        _one_op(bed_on, suite_on, index)
        if (index + 1) % STEP_EVERY == 0:
            record_ = bed_on.run(autopilot.step())
            if record_ is not None and record_.applied:
                demote_at_ops = index + 1
                break
    assert demote_at_ops is not None, \
        f"no demotion within {PILOT_OP_BUDGET} ops"
    time_to_demote = bed_on.sim.now - started
    share_on = _window_share(bed_on, suite_on, demote_at_ops)

    # Run 2: the identical seeded workload, hands off the wheel.
    bed_off, suite_off, _none = _build(with_autopilot=False)
    for index in range(demote_at_ops):
        _one_op(bed_off, suite_off, index)
    share_off = _window_share(bed_off, suite_off, demote_at_ops)

    return (autopilot, demote_at_ops, time_to_demote, share_on,
            share_off)


def test_bench_autopilot_blocking_collapse(benchmark):
    (autopilot, demote_at_ops, time_to_demote, share_on,
     share_off) = benchmark.pedantic(run_autopilot_figure,
                                     rounds=1, iterations=1)

    baseline_pct = share_off[SLOW_SERVER] * 100.0
    steered_pct = share_on[SLOW_SERVER] * 100.0
    applied = [r for r in autopilot.records if r.applied]
    print_table(
        f"A1 — blocking share of {SLOW_SERVER} "
        f"(+{SLOW_DELAY_MS:g} ms/message, r = w = N = 5, "
        f"{WINDOW_OPS}-op window after the shift)",
        ["steering", "share %", "votes s4", "reassignments"],
        [("none (baseline)", baseline_pct, 1, 0),
         ("autopilot", steered_pct,
          autopilot.weights()["rep-s4"], len(applied))])
    print(f"demotion landed after {demote_at_ops} ops, "
          f"{time_to_demote:.0f} ms virtual")

    # Known answers.  Unsteered, the slow server holds the critical
    # path; steered, it is demoted off every quorum and its share of
    # fresh blocking collapses.
    assert baseline_pct > 50.0, share_off
    assert steered_pct < 5.0, share_on
    assert autopilot.weights()["rep-s4"] == 0
    assert len(applied) == 1 and applied[0].kind == "demote"
    assert applied[0].server == SLOW_SERVER
    assert autopilot.state()["rejected_gate"] == 0

    record("figs", "fig_autopilot", "degraded_blocked_share_pct",
           baseline_pct, "%", config="baseline", seed=SEED)
    record("figs", "fig_autopilot", "degraded_blocked_share_pct",
           steered_pct, "%", config="autopilot", seed=SEED)
    record("figs", "fig_autopilot", "time_to_demote_ms",
           time_to_demote, "ms", config="autopilot", seed=SEED)
    record("figs", "fig_autopilot", "reassignments_applied",
           float(len(applied)), "count", config="autopilot", seed=SEED)


def run_seed_sweep():
    """Seeds on which any suite's votes shifted, and every verdict, for
    the degraded sweep and the healthy control."""
    shifted = {"degraded": 0, "healthy": 0}
    verdicts = []
    for config_name, degrade in (("degraded", SWEEP_DEGRADED),
                                 ("healthy", None)):
        for seed in SWEEP_SEEDS:
            report = run_sim_soak(ClusterSoakConfig(
                seed=seed, autopilot=True, degrade_server=degrade))
            verdicts.append(report.verdict)
            shifted[config_name] += any(
                state["applied"] for state in report.autopilots.values())
    return shifted, verdicts


def test_bench_autopilot_seed_sweep(benchmark):
    shifted, verdicts = benchmark.pedantic(run_seed_sweep, rounds=1,
                                           iterations=1)
    seeds = len(SWEEP_SEEDS)
    print_table(
        f"A1 sweep — namespace rollout, seeds {SWEEP_SEEDS.start}–"
        f"{SWEEP_SEEDS.stop - 1}",
        ["cluster", "seeds with shifted votes"],
        [(f"{SWEEP_DEGRADED} degraded", f"{shifted['degraded']}/{seeds}"),
         ("healthy", f"{shifted['healthy']}/{seeds}")])

    assert set(verdicts) == {"OK"}, verdicts
    assert shifted["degraded"] >= 9, shifted
    assert shifted["healthy"] == 0, shifted

    record("figs", "fig_autopilot", "cluster_shifted_seeds",
           float(shifted["degraded"]), "seeds",
           config=f"{SWEEP_DEGRADED}-degraded")
    record("figs", "fig_autopilot", "healthy_shifted_seeds",
           float(shifted["healthy"]), "seeds", config="healthy")
