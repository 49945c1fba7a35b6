"""Invariant-checked soak runs under chaos, on either runtime.

One seeded config determines everything: the chaos policy's per-link
faults, the fault schedule, and the operation mix a sequential client
issues.  Two topologies share one driver:

* **one suite** (:class:`SoakConfig`) on N representatives under the
  crash / restart / partition nemesis.  :func:`run_sim_soak` executes
  it on a :class:`~repro.testbed.Testbed` in virtual time;
  :func:`run_live_soak` executes it on a
  :class:`~repro.live.harness.LoopbackCluster` over real sockets, so the
  ``repro chaos`` CLI can replay a live soak's exact fault script on the
  simulator and compare verdicts;
* **a sharded namespace** (:class:`ClusterSoakConfig`): ops spread over
  every suite of a :class:`~repro.cluster.harness.SimCluster`, and
  halfway through a new storage server *joins the fleet* and the
  harness rebalances every affected suite onto it via the paper's
  reconfiguration machinery, chaos still running (simulator only).

The op driver is one set of generators shared verbatim by both
runtimes and both topologies.  Every operation goes through a
:class:`~repro.verification.HistoryRecorder`, and each suite's history
is judged by :func:`~repro.verification.check_history`.  Failed
operations are recorded, not fatal: under faults that never down more
representatives than the quorum tolerates, most operations ride through
on retries, breakers route around dead representatives, and an
operation that still fails must fail *cleanly* (a failed write is
provably uncommitted).  After the faults end and the policy is
disabled, a handful of convergence reads on the healed cluster must
observe the latest committed version — the soak's proof that degraded
service, not corrupted state, was the worst that happened.

One bookkeeping wrinkle: a reconfiguration — an autopilot reassignment
or a join's rebalance move — *is a committed write* (it re-stages the
current payload at ``version = current + 1`` with the new configuration
in the property map), but it does not go through ``suite.write``, so
the driver records a synthetic committed write for it.  Failed writes
never commit, so "current" is the latest version the driver saw commit.

This module imports the live runtime, so :mod:`repro.chaos` does not
import it eagerly; reach it as ``repro.chaos.soak``.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Generator, List, Optional, Union

from ..autonomy.controller import WeightAutopilot
from ..autonomy.policy import AutopilotPolicy
from ..cluster.harness import ClusterSpec, SimCluster, join_server
from ..cluster.placement import RebalancePlan
from ..core.votes import Representative, SuiteConfiguration
from ..errors import ReproError
from ..obs.critical_path import CriticalPathReport, analyze_quorum_paths
from ..obs.flight import FlightHistory, FlightRecorder
from ..sim.rng import RandomStreams
from ..verification import (HistoryRecorder, InvariantReport, OpRecord,
                            check_history)
from .nemesis import (NemesisScript, markov_nemesis, random_nemesis,
                      run_live_nemesis, schedule_on_sim)
from .policy import ChaosPolicy

#: Payload installed at version 1 of the one-suite soak.
INITIAL_TAG = "soak-init"


@dataclass
class _SoakFields:
    """What every soak is made of, fully determined by ``seed``.

    The defaults are the one-suite soak's; :class:`ClusterSoakConfig`
    overrides a few.  Each topology adds ``server_names``,
    ``majority`` (of one suite's votes) and ``initial_tags()`` (each
    suite's name and install payload).
    """

    ops: int = 500
    seed: int = 1
    read_fraction: float = 0.7
    final_reads: int = 3

    # Per-message chaos (applies on every link, both runtimes).
    loss: float = 0.05
    delay_probability: float = 0.25
    delay_min: float = 1.0
    delay_max: float = 15.0
    duplicate_probability: float = 0.02

    # Vote autopilot: one controller per suite, stepped round-robin
    # from the op driver every ``autopilot_interval_ops`` operations
    # (sequential with the ops, so each reassignment lands at a
    # well-defined point of the history and the checker covers it).
    autopilot: bool = False
    autopilot_interval_ops: int = 10
    autopilot_restore_rounds: int = 12

    # Planted degradation for the known-answer scenario: ``slow_host``
    # the server past every timeout ladder below — the delay applies
    # both ways, so a round trip gains 1,200 ms, more than even a data
    # call's 2 x 500 ms — so that every RPC to it times out (the
    # breaker path; at 400 ms a refresher's install call still got its
    # answer and closed the breaker again), healed at op index
    # ``degrade_heal_at`` (default halfway) so the tail of the run
    # exercises restoration.
    degrade_server: Optional[str] = None
    degrade_delay_ms: float = 600.0
    degrade_heal_at: Optional[int] = None

    # Client aggressiveness.  Short timeouts keep a loopback soak brisk;
    # generous attempt counts let operations ride out crash windows.
    call_timeout: float = 300.0
    inquiry_timeout: float = 250.0
    data_timeout: float = 500.0
    max_attempts: int = 8
    retry_backoff: float = 40.0

    # Server-side lock discipline, tightened so locks stranded by a
    # killed client resolve well inside one op-retry ladder.
    lock_timeout: float = 400.0
    idle_abort_after: float = 2_000.0

    def __post_init__(self) -> None:
        if self.degrade_server is not None \
                and self.degrade_server not in self.server_names:
            raise ValueError(
                f"degrade server {self.degrade_server!r} not in the "
                "cluster")

    def chaos_policy(self, streams: RandomStreams) -> ChaosPolicy:
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
        """Soak tuning: the survivability floor is a majority of each
        suite's voting representatives, so even repeated demotions can
        never leave a suite unable to lose one more server."""
        return AutopilotPolicy(min_voting_reps=self.majority)

    def suite_kwargs(self) -> Dict[str, Any]:
        return {"inquiry_timeout": self.inquiry_timeout,
                "data_timeout": self.data_timeout,
                "max_attempts": self.max_attempts,
                "retry_backoff": self.retry_backoff}


@dataclass
class SoakConfig(_SoakFields):
    """One suite with one vote per representative under the nemesis."""

    reps: int = 5

    # Nemesis (crash / restart / partition schedule).
    nemesis_kind: str = "random"         # "random" | "markov" | "none"
    horizon: Optional[float] = None      # ms; default derived from ops
    mean_interval: float = 1_000.0
    max_down: Optional[int] = None       # default (reps - 1) // 2
    markov_availability: float = 0.9
    markov_mttr: float = 1_500.0

    # Read fast path: on by default (the production default); a soak
    # may turn it off to exercise the legacy two-trip path, or set
    # ``read_max_bytes`` below the payload size so every piggyback is
    # truncated and the fallback runs under chaos.
    read_fastpath: bool = True
    read_max_bytes: Optional[int] = None   # None → the suite default

    transport_attempts: int = 2

    def __post_init__(self) -> None:
        if self.reps < 3:
            raise ValueError("need at least 3 representatives")
        if self.ops < 1:
            raise ValueError("need at least one operation")
        if self.nemesis_kind not in ("random", "markov", "none"):
            raise ValueError(
                f"unknown nemesis kind {self.nemesis_kind!r}")
        super().__post_init__()

    @property
    def server_names(self) -> List[str]:
        return [f"s{i + 1}" for i in range(self.reps)]

    @property
    def majority(self) -> int:
        return self.reps // 2 + 1

    def initial_tags(self) -> Dict[str, str]:
        return {self.suite_configuration().suite_name: INITIAL_TAG}

    def nemesis_horizon(self) -> float:
        if self.horizon is not None:
            return self.horizon
        return max(6_000.0, 20.0 * self.ops)

    def suite_configuration(self) -> SuiteConfiguration:
        """One vote per representative, majority read and write quorums
        (``r + w > N`` and ``2w > N`` both hold with the largest
        tolerance for crashed representatives)."""
        reps = tuple(
            Representative(rep_id=f"rep-{i + 1}", server=name, votes=1,
                           latency_hint=float(i))
            for i, name in enumerate(self.server_names))
        return SuiteConfiguration(suite_name="chaosdb",
                                  representatives=reps,
                                  read_quorum=self.majority,
                                  write_quorum=self.majority)

    def nemesis(self, streams: RandomStreams) -> NemesisScript:
        if self.nemesis_kind == "none":
            return NemesisScript(steps=[], horizon=0.0)
        if self.nemesis_kind == "markov":
            return markov_nemesis(self.server_names,
                                  availability=self.markov_availability,
                                  mttr=self.markov_mttr,
                                  horizon=self.nemesis_horizon(),
                                  streams=streams)
        return random_nemesis(self.server_names, streams=streams,
                              horizon=self.nemesis_horizon(),
                              mean_interval=self.mean_interval,
                              max_down=self.max_down)

    def suite_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(super().suite_kwargs(),
                      read_fastpath=self.read_fastpath)
        if self.read_max_bytes is not None:
            kwargs["read_max_bytes"] = self.read_max_bytes
        return kwargs


@dataclass
class ClusterSoakConfig(_SoakFields):
    """A sharded namespace under chaos, with a server joining mid-run."""

    servers: int = 5
    suites: int = 6
    directory_shards: int = 2
    replication: int = 3
    #: Fraction of the op budget issued before the new server joins.
    join_at: float = 0.5

    ops: int = 160
    seed: int = 11
    final_reads: int = 2
    loss: float = 0.02
    delay_probability: float = 0.2
    delay_max: float = 10.0
    duplicate_probability: float = 0.01

    def __post_init__(self) -> None:
        if self.ops < 2:
            raise ValueError("need at least two operations")
        if not 0.0 < self.join_at < 1.0:
            raise ValueError("join_at must fall inside the run")
        super().__post_init__()

    @property
    def server_names(self) -> List[str]:
        return self.spec().server_names

    @property
    def majority(self) -> int:
        return self.replication // 2 + 1

    def initial_tags(self) -> Dict[str, str]:
        spec = self.spec()
        return {name: spec.initial_data(name).decode()
                for name in spec.suite_names}

    def spec(self) -> ClusterSpec:
        return ClusterSpec(servers=self.servers, suites=self.suites,
                           directory_shards=self.directory_shards,
                           replication=self.replication, seed=self.seed)


AnySoakConfig = Union[SoakConfig, ClusterSoakConfig]


@dataclass
class SoakReport:
    """Everything a soak run produced, per suite."""

    runtime: str                         # "sim" | "live" | "cluster-sim"
    config: AnySoakConfig
    reports: Dict[str, InvariantReport]
    histories: Dict[str, List[OpRecord]]
    chaos_stats: Dict[str, int]
    nemesis_steps: int = 0
    breakers: Dict[str, Any] = field(default_factory=dict)
    elapsed_ms: float = 0.0
    #: Per-suite :meth:`WeightAutopilot.state` at the end of the run,
    #: when the autopilot was enabled.
    autopilots: Optional[Dict[str, Dict[str, Any]]] = None
    #: The mid-run join's rebalance plan (namespace soak).
    plan: Optional[RebalancePlan] = None
    #: Quorum blocking attribution reconstructed from the soak's trace
    #: (namespace soak: who actually gated the gathers while chaos ran).
    critical_path: Optional[CriticalPathReport] = None

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports.values())

    # The one-suite soak's report, history and autopilot state.

    @property
    def report(self) -> InvariantReport:
        (report,) = self.reports.values()
        return report

    @property
    def history(self) -> List[OpRecord]:
        (history,) = self.histories.values()
        return history

    @property
    def autopilot(self) -> Optional[Dict[str, Any]]:
        if self.autopilots is None:
            return None
        (state,) = self.autopilots.values()
        return state

    @property
    def verdict(self) -> str:
        """Runtime-independent outcome, for sim/live comparison."""
        rules = sorted({violation.rule
                        for report in self.reports.values()
                        for violation in report.violations})
        return "VIOLATIONS:" + ",".join(rules) if rules else "OK"

    def summary(self) -> str:
        if len(self.reports) == 1:
            outcome = self.report.summary()
        else:
            bad = sorted(name for name, report in self.reports.items()
                         if not report.ok)
            ops = sum(report.ops for report in self.reports.values())
            outcome = ("OK" if not bad else
                       f"VIOLATIONS in {', '.join(bad)}") + \
                f": {ops} ops over {len(self.reports)} suites"
        chaos = ", ".join(f"{name}={count}" for name, count
                          in sorted(self.chaos_stats.items()))
        text = (f"[{self.runtime}] seed={self.config.seed} {outcome} | "
                f"nemesis steps: {self.nemesis_steps} | {chaos} | "
                f"{self.elapsed_ms:.0f}ms")
        if self.plan is not None:
            text += f" | join: {self.plan.summary()}"
        if self.critical_path is not None:
            top = self.critical_path.top_blockers(1)
            if top:
                rep = top[0][0]
                share = self.critical_path.blocking_share().get(rep, 0.0)
                text += (f" | top blocker: {rep} "
                         f"({share:.0%} of quorum wait)")
        if self.autopilots is not None:
            states = self.autopilots.values()
            off_seed = sorted(name for name, state
                              in self.autopilots.items()
                              if not state["at_seed_weights"])
            text += (
                f" | autopilot: {sum(s['applied'] for s in states)} "
                f"applied, {sum(s['rejected_gate'] for s in states)} "
                "gate-rejected, "
                + ("at seed weights" if not off_seed else
                   f"OFF seed weights: {', '.join(off_seed)}"))
        return text


# ---------------------------------------------------------------------------
# The driver (one set of generators, both runtimes, both topologies)
# ---------------------------------------------------------------------------

class _SoakRun:
    """One soak in flight: the suites under test, their histories, and
    the latest committed ``(version, tag)`` of each suite, from which
    reconfigurations are numbered.

    With a ``cluster`` (the namespace topology) each op goes to a
    seeded choice of suite and the new server joins at op
    ``ops * join_at``.  A ``recorder`` journals every history append
    as an ``op`` event, tagged with its suite in a namespace.
    """

    def __init__(self, config: AnySoakConfig, handles: Dict[str, Any],
                 policy: ChaosPolicy, rng,
                 recorder: Optional[FlightRecorder] = None,
                 cluster: Optional[SimCluster] = None) -> None:
        self.config = config
        self.handles = handles
        self.policy = policy
        self.rng = rng
        self.cluster = cluster
        self.initial_tags = config.initial_tags()
        self.latest = {name: (1, tag)
                       for name, tag in self.initial_tags.items()}
        self.histories: Dict[str, List[OpRecord]] = {
            name: FlightHistory(recorder, suite=name if cluster else None)
            if recorder is not None else [] for name in handles}
        self.recorders = {name: HistoryRecorder(handle,
                                                self.histories[name])
                          for name, handle in handles.items()}
        self.autopilots: Dict[str, WeightAutopilot] = {
            name: WeightAutopilot(handle, policy=config.autopilot_policy())
            for name, handle in handles.items()} if config.autopilot \
            else {}
        self.plan: Optional[RebalancePlan] = None

    def ops(self) -> Generator[Any, Any, None]:
        """Issue the seeded op mix sequentially; record every outcome.

        The autopilots are stepped round-robin every
        ``autopilot_interval_ops`` operations *between* ops.  With a
        configured ``degrade_server``, the planted slowdown is injected
        before the first op and healed at ``degrade_heal_index()``.
        """
        config = self.config
        names = list(self.handles)
        heal_at = config.degrade_heal_index()
        join_at = (max(1, int(config.ops * config.join_at))
                   if self.cluster is not None else None)
        rotation = sorted(self.autopilots)
        interval = config.autopilot_interval_ops
        for index in range(config.ops):
            if config.degrade_server is not None:
                if index == 0:
                    self.policy.slow_host(config.degrade_server,
                                          config.degrade_delay_ms)
                elif index == heal_at:
                    self.policy.clear_slow_hosts()
            if index == join_at:
                yield from self._join(index)
            name = (self.rng.choice(names) if self.cluster is not None
                    else names[0])
            if self.rng.random() < config.read_fraction:
                yield from self._read(name, index)
            else:
                yield from self._write(name, index)
            if rotation and interval > 0 and (index + 1) % interval == 0:
                rounds = (index + 1) // interval - 1
                yield from self._autopilot_round(
                    rotation[rounds % len(rotation)], index)

    def restore(self) -> Generator[Any, Any, None]:
        """Post-fault restoration rounds for every autopilot.

        The healed cluster no longer fails foreground traffic, but a
        demoted representative only proves itself through fresh
        evidence — each round issues one read (whose weak-representative
        polling probes the breaker and drains staleness), then steps the
        controller.  A suite stops once its votes are back at seed."""
        for name, autopilot in sorted(self.autopilots.items()):
            index = self._next_index(name)
            for round_ in range(self.config.autopilot_restore_rounds):
                if autopilot.at_seed_weights():
                    break
                yield from self._read(name, index + round_)
                yield from self._autopilot_round(name, index + round_)
                yield self.handles[name].sim.timeout(
                    autopilot.policy.interval_ms)

    def final_reads(self) -> Generator[Any, Any, None]:
        """Convergence reads on the healed, chaos-free cluster."""
        for name in self.handles:
            index = self._next_index(name)
            for offset in range(self.config.final_reads):
                yield from self._read(name, index + offset)

    def report(self, runtime: str, elapsed_ms: float,
               nemesis_steps: int = 0,
               breakers: Optional[Dict[str, Any]] = None,
               critical_path: Optional[CriticalPathReport] = None,
               ) -> SoakReport:
        return SoakReport(
            runtime=runtime, config=self.config,
            reports={name: check_history(
                history, initial_tag=self.initial_tags[name])
                for name, history in self.histories.items()},
            histories=self.histories, chaos_stats=self.policy.stats(),
            nemesis_steps=nemesis_steps, breakers=breakers or {},
            elapsed_ms=elapsed_ms,
            autopilots={name: pilot.state()
                        for name, pilot in self.autopilots.items()}
            if self.config.autopilot else None,
            plan=self.plan, critical_path=critical_path)

    def _next_index(self, name: str) -> int:
        """Ops after the op loop are numbered past the budget and past
        whatever the suite's history already holds."""
        history = self.histories[name]
        return max(self.config.ops, history[-1].index + 1 if history else 0)

    def _read(self, name: str, index: int) -> Generator[Any, Any, None]:
        try:
            yield from self.recorders[name].read(index)
        except ReproError:
            pass                         # recorded as failed

    def _write(self, name: str, index: int) -> Generator[Any, Any, None]:
        tag = f"soak-{index}"
        try:
            result = yield from self.recorders[name].write(
                tag.encode("utf-8"), index)
        except ReproError:
            return                       # recorded; never committed
        if result.version > self.latest[name][0]:
            self.latest[name] = (result.version, tag)

    def _autopilot_round(self, name: str,
                         index: int) -> Generator[Any, Any, None]:
        record = yield from self.autopilots[name].step()
        if record is not None and record.applied:
            self._reconfigured(name, index)

    def _join(self, index: int) -> Generator[Any, Any, None]:
        """Grow the fleet by one server, chaos still enabled."""
        cluster = self.cluster
        server = f"{cluster.spec.server_prefix}{cluster.spec.servers + 1}"
        cluster.bed.add_server(server)
        cluster.ring.add_server(server)
        self.plan = yield from join_server(cluster.state, server)
        for name in sorted(self.plan.moves):
            self._reconfigured(name, index)

    def _reconfigured(self, name: str, index: int) -> None:
        """Record a reconfiguration as the committed write it is."""
        version, tag = self.latest[name]
        self.latest[name] = (version + 1, tag)
        now = self.handles[name].sim.now
        self.histories[name].append(OpRecord(
            index=index, kind="write", ok=True, started=now,
            finished=now, version=version + 1, tag=tag))


# ---------------------------------------------------------------------------
# Runtime-specific runners
# ---------------------------------------------------------------------------

def _open_flight(flight_dir: Optional[str], clock, runtime: str,
                 config: AnySoakConfig,
                 policy: ChaosPolicy) -> Optional[FlightRecorder]:
    """The run's flight recorder, meta record emitted, or ``None``."""
    if flight_dir is None:
        return None
    recorder = FlightRecorder(flight_dir, clock=clock)
    tags = ({"initial_tags": config.initial_tags()}
            if runtime == "cluster-sim" else {"initial_tag": INITIAL_TAG})
    recorder.emit("meta", runtime=runtime, seed=config.seed,
                  config=asdict(config), **tags)
    policy.flight = recorder
    return recorder


def _close_flight(recorder: Optional[FlightRecorder], metrics: Any,
                  policy: ChaosPolicy) -> None:
    """Close the journal with the ``quorum.blocking.*`` plane as plain
    data, so ``repro replay --verify`` can cross-check the attribution
    it re-derives from ``quorum`` events against what the live counters
    actually said — any disagreement means one plane lied."""
    if recorder is None:
        return
    snapshot = metrics.snapshot()
    values = dict(snapshot["counters"])
    values.update((name, gauge["value"])
                  for name, gauge in snapshot["gauges"].items())
    recorder.emit("metrics", chaos=policy.stats(), blocking={
        name: float(value) for name, value in values.items()
        if name.startswith("quorum.blocking.")})
    recorder.close()


def run_sim_soak(config: AnySoakConfig,
                 flight_dir: Optional[str] = None) -> SoakReport:
    """The soak on a simulated testbed, in virtual time.

    With ``flight_dir``, every protocol decision is journaled to a
    :class:`~repro.obs.flight.FlightRecorder` there.  The journal is
    deterministic: same config + seed ⇒ byte-identical segments,
    which is what ``repro replay --re-execute`` relies on.
    """
    from ..testbed import Testbed

    namespace = isinstance(config, ClusterSoakConfig)
    runtime = "cluster-sim" if namespace else "sim"
    streams = RandomStreams(seed=config.seed)
    policy = config.chaos_policy(streams)
    policy.enabled = False               # clean install first
    script = None if namespace else config.nemesis(streams)

    suite_kwargs = config.suite_kwargs()
    # Breakers route the one-suite soak around crashed representatives;
    # the namespace soak runs them only to feed its autopilots.
    bed_kwargs = dict(call_timeout=config.call_timeout,
                      lock_timeout=config.lock_timeout,
                      idle_abort_after=config.idle_abort_after, obs=True,
                      breakers=config.autopilot or not namespace)
    cluster = None
    if namespace:
        cluster = SimCluster(config.spec(), suite_kwargs=suite_kwargs,
                             **bed_kwargs)
        bed = cluster.bed
    else:
        bed = Testbed(config.server_names, seed=config.seed, **bed_kwargs)
        bed.clients["client"].manager.transport_attempts = \
            config.transport_attempts
    bed.network.chaos = policy
    client = bed.clients["client"]
    health = client.endpoint.health

    recorder = _open_flight(flight_dir, lambda: bed.sim.now, runtime,
                            config, policy)
    if recorder is not None:
        client.manager.flight = recorder
        if health is not None:
            health.flight = recorder

    if namespace:
        handles = cluster.start().handles
    else:
        (name,) = config.initial_tags()
        handles = {name: bed.install(config.suite_configuration(),
                                     INITIAL_TAG.encode("utf-8"),
                                     **suite_kwargs)}
    run = _SoakRun(config, handles, policy,
                   streams.stream("cluster-soak:ops" if namespace
                                  else "soak:ops"),
                   recorder, cluster)
    started = bed.sim.now
    if namespace:
        # Attribution covers the soak proper, not the clean bootstrap.
        bed.collector.ring.clear()

    policy.enabled = True
    adapter = (schedule_on_sim(bed, script, policy, disable_at_end=False)
               if script is not None else None)
    bed.run(run.ops())
    if script is not None:
        # Let the nemesis script finish (heal + restart-all).
        remaining = script.horizon - bed.sim.now
        bed.settle(grace=max(1_000.0, remaining + 1_000.0))
    # Verify convergence without message-level faults.
    policy.enabled = False
    if run.autopilots:
        bed.run(run.restore())
    bed.run(run.final_reads())
    _close_flight(recorder, bed.metrics, policy)

    return run.report(
        runtime, bed.sim.now - started,
        nemesis_steps=len(adapter.applied) if adapter is not None else 0,
        breakers=health.snapshot() if health is not None else None,
        critical_path=analyze_quorum_paths(bed.collector.spans())
        if namespace else None)


#: Default size cap for soak trace exports (bytes per file); keeps a
#: long soak's JSONL artifact bounded without the CLIs having to pick.
DEFAULT_TRACE_MAX_BYTES = 8 << 20


async def run_live_soak(config: SoakConfig,
                        data_root: Optional[str] = None,
                        trace_path: Optional[str] = None,
                        flight_dir: Optional[str] = None) -> SoakReport:
    """The one-suite soak on a live loopback cluster, over real sockets.

    With ``flight_dir``, the client runtime journals its decisions
    there.  Live journals are *not* byte-reproducible (wall clock,
    fresh txn ids) — ``repro replay`` verifies them and re-executes
    the recorded config on the sim kernel instead.
    """
    from ..live.harness import LoopbackCluster

    streams = RandomStreams(seed=config.seed)
    policy = config.chaos_policy(streams)
    policy.enabled = False               # clean install first
    script = config.nemesis(streams)
    # The clock is rebound to the live kernel once the cluster is up;
    # only the meta record sees the placeholder.
    recorder = _open_flight(flight_dir, lambda: 0.0, "live", config,
                            policy)

    async with LoopbackCluster(
            config.server_names, chaos=policy,
            call_timeout=config.call_timeout,
            transport_attempts=config.transport_attempts,
            lock_timeout=config.lock_timeout,
            idle_abort_after=config.idle_abort_after,
            data_root=data_root, seed=config.seed,
            flight=recorder) as cluster:
        kernel = cluster.client.kernel
        if recorder is not None:
            recorder.clock = lambda: kernel.now
        (name,) = config.initial_tags()
        suite = await cluster.install(config.suite_configuration(),
                                      INITIAL_TAG.encode("utf-8"),
                                      **config.suite_kwargs())
        started = kernel.now
        run = _SoakRun(config, {name: suite}, policy,
                       streams.stream("soak:ops"), recorder)

        policy.enabled = True
        nemesis_task = asyncio.ensure_future(
            run_live_nemesis(cluster, script, policy,
                             disable_at_end=False))
        try:
            await cluster.run(run.ops())
        finally:
            # The op run never outlives this scope with servers down:
            # the script's tail heals and restarts everything.
            adapter = await nemesis_task
        policy.enabled = False
        if run.autopilots:
            await cluster.run(run.restore())
        await cluster.run(run.final_reads())
        elapsed = kernel.now - started
        breakers = cluster.client.health.snapshot()
        _close_flight(recorder, cluster.client.metrics, policy)
        if trace_path is not None:
            cluster.export_trace_jsonl(
                trace_path, max_bytes=DEFAULT_TRACE_MAX_BYTES)

    return run.report("live", elapsed, nemesis_steps=len(adapter.applied),
                      breakers=breakers)
