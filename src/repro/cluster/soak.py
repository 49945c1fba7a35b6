"""Invariant-checked cluster soak: chaos faults plus a mid-run join.

The single-suite soak (:mod:`repro.chaos.soak`) proves one suite
degrades gracefully under message-level faults.  The cluster soak
scales the claim: a sequential client sprays reads and writes over a
whole sharded namespace while the chaos policy drops, delays and
duplicates messages on every link — and halfway through, a new storage
server *joins the fleet* and the harness rebalances every affected
suite onto it via the paper's reconfiguration machinery, chaos still
running.  Each suite's history is checked independently against the
standard invariants (unique versions, monotonic commits, fresh reads,
representative monotonicity); the verdict covers both serving under
faults and the join itself.

One bookkeeping wrinkle: a reconfiguration *is a committed write* — it
re-stages the current payload at ``version = current + 1`` with the new
configuration in the property map — but it does not go through
``suite.write``, so the driver records a synthetic committed-write
:class:`~repro.chaos.invariants.OpRecord` for every moved suite.
Failed operations are provably uncommitted, so "current" at reconfig
time is exactly the checker's latest committed version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

# The recording discipline must match the single-suite soak exactly —
# same OpRecord shape, same error taxonomy — so the two soaks share
# the op helpers rather than growing subtly different copies.
from ..autonomy.controller import WeightAutopilot
from ..autonomy.policy import AutopilotPolicy
from ..chaos.invariants import InvariantReport, OpRecord, check_history
from ..chaos.soak import _flight_blocking_snapshot, _one_read, _one_write
from ..obs.critical_path import CriticalPathReport, analyze_quorum_paths
from ..obs.flight import FlightHistory, FlightRecorder
from ..sim.rng import RandomStreams
from .harness import ClusterSpec, SimCluster, join_server
from .placement import RebalancePlan


@dataclass
class ClusterSoakConfig:
    """Everything a cluster soak needs, fully determined by ``seed``."""

    servers: int = 5
    suites: int = 6
    directory_shards: int = 2
    replication: int = 3
    ops: int = 160
    seed: int = 11
    read_fraction: float = 0.7
    final_reads: int = 2
    #: Fraction of the op budget issued before the new server joins.
    join_at: float = 0.5

    # Per-message chaos on every link (client ↔ every server).
    loss: float = 0.02
    delay_probability: float = 0.2
    delay_min: float = 1.0
    delay_max: float = 10.0
    duplicate_probability: float = 0.01

    # Client aggressiveness / server lock discipline, as in SoakConfig.
    call_timeout: float = 300.0
    inquiry_timeout: float = 250.0
    data_timeout: float = 500.0
    max_attempts: int = 8
    retry_backoff: float = 40.0
    lock_timeout: float = 400.0
    idle_abort_after: float = 2_000.0

    # Vote autopilot across the namespace: one controller per suite,
    # stepped round-robin from the op driver every
    # ``autopilot_interval_ops`` operations (sequential with the ops,
    # same discipline as the single-suite soak).
    autopilot: bool = False
    autopilot_interval_ops: int = 10
    autopilot_restore_rounds: int = 12

    # Planted degradation, as in SoakConfig: slow one server past the
    # call timeout from the first op, heal at ``degrade_heal_at``
    # (default halfway).
    degrade_server: Optional[str] = None
    degrade_delay_ms: float = 600.0
    degrade_heal_at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ops < 2:
            raise ValueError("need at least two operations")
        if not 0.0 < self.join_at < 1.0:
            raise ValueError("join_at must fall inside the run")
        if self.degrade_server is not None \
                and self.degrade_server not in self.spec().server_names:
            raise ValueError(
                f"degrade server {self.degrade_server!r} not in the "
                "cluster")

    def spec(self) -> ClusterSpec:
        return ClusterSpec(servers=self.servers, suites=self.suites,
                           directory_shards=self.directory_shards,
                           replication=self.replication, seed=self.seed)

    def suite_kwargs(self) -> Dict[str, Any]:
        return {"inquiry_timeout": self.inquiry_timeout,
                "data_timeout": self.data_timeout,
                "max_attempts": self.max_attempts,
                "retry_backoff": self.retry_backoff}

    def chaos_policy(self, streams: RandomStreams):
        from ..chaos.policy import ChaosPolicy
        return ChaosPolicy(streams=streams,
                           drop_probability=self.loss,
                           delay_probability=self.delay_probability,
                           delay_min=self.delay_min,
                           delay_max=self.delay_max,
                           duplicate_probability=self.duplicate_probability)

    def degrade_heal_index(self) -> Optional[int]:
        if self.degrade_server is None:
            return None
        if self.degrade_heal_at is not None:
            return self.degrade_heal_at
        return self.ops // 2

    def autopilot_policy(self) -> AutopilotPolicy:
        """Survivability floor: a majority of each suite's replicas
        must keep votes, so a demotion can never leave a suite unable
        to lose one more server."""
        return AutopilotPolicy(min_voting_reps=self.replication // 2 + 1)


@dataclass
class ClusterSoakReport:
    """Per-suite verdicts plus the join's rebalance plan."""

    config: ClusterSoakConfig
    reports: Dict[str, InvariantReport]
    histories: Dict[str, List[OpRecord]]
    plan: Optional[RebalancePlan]
    chaos_stats: Dict[str, int] = field(default_factory=dict)
    elapsed_ms: float = 0.0
    #: Quorum blocking attribution reconstructed from the soak's trace
    #: (who actually gated the gathers while chaos ran).
    critical_path: Optional[CriticalPathReport] = None
    #: Per-suite :meth:`WeightAutopilot.state`, when enabled.
    autopilot: Optional[Dict[str, Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports.values())

    def summary(self) -> str:
        ops = sum(report.ops for report in self.reports.values())
        bad = sorted(name for name, report in self.reports.items()
                     if not report.ok)
        verdict = "OK" if not bad else f"VIOLATIONS in {', '.join(bad)}"
        join = (self.plan.summary() if self.plan is not None
                else "no join")
        blocker = ""
        if self.critical_path is not None:
            top = self.critical_path.top_blockers(1)
            if top:
                rep, blocked, _closes = top[0]
                share = self.critical_path.blocking_share().get(rep, 0.0)
                blocker = (f" | top blocker: {rep} "
                           f"({share:.0%} of quorum wait)")
        autopilot = ""
        if self.autopilot is not None:
            applied = sum(state["applied"]
                          for state in self.autopilot.values())
            off_seed = sorted(name for name, state
                              in self.autopilot.items()
                              if not state["at_seed_weights"])
            autopilot = (f" | autopilot: {applied} applied over "
                         f"{len(self.autopilot)} suites, "
                         + ("at seed weights" if not off_seed else
                            f"OFF seed weights: {', '.join(off_seed)}"))
        return (f"[cluster-sim] seed={self.config.seed} {verdict}: "
                f"{ops} ops over {len(self.reports)} suites | "
                f"join: {join} | {self.elapsed_ms:.0f}ms virtual"
                f"{blocker}{autopilot}")


def _drive_cluster(cluster: SimCluster, config: ClusterSoakConfig,
                   policy: Any, streams: RandomStreams,
                   autopilots: Optional[Dict[str, WeightAutopilot]] = None,
                   histories: Optional[Dict[str, List[OpRecord]]] = None,
                   ) -> Generator[Any, Any, Tuple[Dict[str, List[OpRecord]],
                                                  RebalancePlan]]:
    """The whole soak as one generator on the cluster's client.

    With ``autopilots`` (one controller per suite), the controllers are
    stepped round-robin every ``autopilot_interval_ops`` operations —
    sequential with the workload, so each reassignment lands at a
    well-defined point of its suite's history.  After the convergence
    reads, restoration rounds drive every off-seed suite back (the
    degradation is healed by then).
    """
    spec = cluster.spec
    names = spec.suite_names
    clock = lambda: cluster.bed.sim.now  # noqa: E731
    rng = streams.stream("cluster-soak:ops")
    if histories is None:
        histories = {name: [] for name in names}
    # Latest committed (version, tag) per suite — the reconfiguration
    # records below need it, and failed writes never commit.
    latest: Dict[str, Tuple[int, str]] = {
        name: (1, spec.initial_data(name).decode()) for name in names}
    writes: Dict[str, int] = {name: 0 for name in names}
    join_index = max(1, int(config.ops * config.join_at))
    heal_index = config.degrade_heal_index()
    plan: Optional[RebalancePlan] = None
    rotation = sorted(autopilots) if autopilots else []
    step = 0

    for index in range(config.ops):
        if policy is not None and config.degrade_server is not None:
            if index == 0:
                policy.slow_host(config.degrade_server,
                                 config.degrade_delay_ms)
            elif index == heal_index:
                policy.clear_slow_hosts()
        if index == join_index:
            plan = yield from _join_mid_run(cluster, histories, latest,
                                            clock, index)
        name = rng.choice(names)
        history = histories[name]
        if rng.random() < config.read_fraction:
            yield from _one_read(cluster.handles[name], clock, index,
                                 history)
        else:
            writes[name] += 1
            tag = f"{name}:soak-{writes[name]}"
            yield from _one_write(cluster.handles[name], clock, index,
                                  history, tag=tag)
            if history[-1].ok:
                latest[name] = (history[-1].version, tag)
        if rotation and config.autopilot_interval_ops > 0 \
                and (index + 1) % config.autopilot_interval_ops == 0:
            target = rotation[step % len(rotation)]
            step += 1
            yield from _autopilot_round(autopilots[target], target,
                                        histories, latest, clock, index)

    # Chaos off; every suite must converge on its latest commit.
    policy.enabled = False
    for name in names:
        for offset in range(config.final_reads):
            yield from _one_read(cluster.handles[name], clock,
                                 config.ops + offset, histories[name])
    if autopilots:
        yield from _restore_cluster_weights(cluster, config, autopilots,
                                            histories, latest, clock)
    assert plan is not None
    return histories, plan


def _autopilot_round(autopilot: WeightAutopilot, name: str,
                     histories: Dict[str, List[OpRecord]],
                     latest: Dict[str, Tuple[int, str]], clock,
                     index: int) -> Generator[Any, Any, None]:
    """One control round for one suite, checker bookkeeping included.

    An applied reassignment re-stages the suite's payload at
    ``version = current + 1`` — a committed write — so it gets the
    same synthetic record as the mid-run join's rebalance moves.
    """
    record = yield from autopilot.step()
    if record is not None and record.applied:
        version, tag = latest[name]
        latest[name] = (version + 1, tag)
        now = clock()
        histories[name].append(OpRecord(
            index=index, kind="write", ok=True, started=now,
            finished=now, version=version + 1, tag=tag))


def _restore_cluster_weights(cluster: SimCluster,
                             config: ClusterSoakConfig,
                             autopilots: Dict[str, WeightAutopilot],
                             histories: Dict[str, List[OpRecord]],
                             latest: Dict[str, Tuple[int, str]], clock,
                             ) -> Generator[Any, Any, None]:
    """Drive every off-seed suite back to its seed weights.

    Mirrors the single-suite soak's restoration phase: each round
    issues one read (fresh evidence for the breaker and the staleness
    gauges), then steps the controller, until the vote vector is back
    at seed or the round budget runs out."""
    for name in sorted(autopilots):
        autopilot = autopilots[name]
        history = histories[name]
        index = history[-1].index + 1 if history else 0
        for round_ in range(config.autopilot_restore_rounds):
            if autopilot.at_seed_weights():
                break
            yield from _one_read(cluster.handles[name], clock,
                                 index + round_, history)
            yield from _autopilot_round(autopilot, name, histories,
                                        latest, clock, index + round_)
            yield cluster.handles[name].sim.timeout(
                autopilot.policy.interval_ms)


def _join_mid_run(cluster: SimCluster, histories, latest, clock,
                  index: int) -> Generator[Any, Any, RebalancePlan]:
    """Grow the fleet by one server, chaos still enabled."""
    spec = cluster.spec
    server = f"{spec.server_prefix}{spec.servers + 1}"
    cluster.bed.add_server(server)
    cluster.ring.add_server(server)
    plan = yield from join_server(cluster.state, server)
    now = clock()
    for name in sorted(plan.moves):
        version, tag = latest[name]
        latest[name] = (version + 1, tag)
        histories[name].append(OpRecord(
            index=index, kind="write", ok=True, started=now,
            finished=now, version=version + 1, tag=tag))
    return plan


def run_cluster_sim_soak(config: ClusterSoakConfig,
                         flight_dir: Optional[str] = None,
                         ) -> ClusterSoakReport:
    """The cluster soak on a simulated testbed, in virtual time.

    With ``flight_dir``, every suite's decisions land in one shared
    :class:`~repro.obs.flight.FlightRecorder` — ``op`` events carry a
    ``suite`` key so replay can demux the namespace's histories."""
    from dataclasses import asdict

    streams = RandomStreams(seed=config.seed)
    policy = config.chaos_policy(streams)
    policy.enabled = False               # clean bootstrap first
    suite_kwargs = config.suite_kwargs()
    cluster = SimCluster(config.spec(),
                         suite_kwargs=suite_kwargs,
                         call_timeout=config.call_timeout,
                         lock_timeout=config.lock_timeout,
                         idle_abort_after=config.idle_abort_after,
                         obs=True)
    cluster.bed.network.chaos = policy
    health = None
    if config.autopilot:
        from ..chaos.health import HealthTracker
        health = HealthTracker(clock=lambda: cluster.bed.sim.now,
                               metrics=cluster.bed.metrics)
        cluster.bed.clients["client"].endpoint.health = health
        cluster._suite_kwargs = dict(suite_kwargs, health=health)
    recorder = None
    if flight_dir is not None:
        spec = config.spec()
        recorder = FlightRecorder(flight_dir,
                                  clock=lambda: cluster.bed.sim.now)
        recorder.emit(
            "meta", runtime="cluster-sim", seed=config.seed,
            config=asdict(config),
            initial_tags={name: spec.initial_data(name).decode()
                          for name in spec.suite_names})
        cluster.bed.flight = recorder    # before start: suites inherit
        policy.flight = recorder
        if health is not None:
            health.flight = recorder
    cluster.start()
    autopilots: Optional[Dict[str, WeightAutopilot]] = None
    if config.autopilot:
        autopilots = {
            name: WeightAutopilot(cluster.handles[name], health=health,
                                  policy=config.autopilot_policy())
            for name in config.spec().suite_names}
    started = cluster.bed.sim.now
    # Attribution covers the soak proper, not the clean bootstrap.
    cluster.bed.collector.ring.clear()

    policy.enabled = True
    journaled: Optional[Dict[str, List[OpRecord]]] = None
    if recorder is not None:
        journaled = {name: FlightHistory(recorder, suite=name)
                     for name in config.spec().suite_names}
    histories, plan = cluster.bed.run(
        _drive_cluster(cluster, config, policy, streams,
                       autopilots=autopilots, histories=journaled))

    if recorder is not None:
        recorder.emit("metrics", blocking=_flight_blocking_snapshot(
            cluster.bed.metrics), chaos=policy.stats())
        recorder.close()

    reports = {
        name: check_history(histories[name],
                            initial_tag=config.spec().initial_data(
                                name).decode())
        for name in sorted(histories)
    }
    return ClusterSoakReport(
        config=config, reports=reports, histories=histories, plan=plan,
        chaos_stats=policy.stats(),
        elapsed_ms=cluster.bed.sim.now - started,
        critical_path=analyze_quorum_paths(cluster.bed.collector.spans()),
        autopilot={name: pilot.state()
                   for name, pilot in autopilots.items()}
        if autopilots is not None else None)
