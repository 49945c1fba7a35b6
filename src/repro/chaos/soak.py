"""Invariant-checked soak runs under the nemesis, on either runtime.

One seeded :class:`SoakConfig` determines everything: the chaos policy's
per-link faults, the nemesis schedule, and the operation mix a
sequential client issues.  :func:`run_sim_soak` executes it on a
:class:`~repro.testbed.Testbed` in virtual time; :func:`run_live_soak`
executes it on a :class:`~repro.live.harness.LoopbackCluster` over real
sockets.  Both record the same :class:`~repro.chaos.invariants.OpRecord`
history and hand it to the same checker, so the ``repro chaos`` CLI can
replay a live soak's exact fault script on the simulator and compare
verdicts.

The op driver is one generator shared verbatim by both runtimes — the
same property that lets the whole protocol stack run on either kernel.
Failed operations are recorded, not fatal: under a nemesis that never
downs more representatives than the quorum tolerates, most operations
ride through on retries, breakers route around dead representatives,
and an operation that still fails must fail *cleanly* (a failed write is
provably uncommitted).  After the nemesis ends and the policy is
disabled, a handful of convergence reads on the healed cluster must
observe the latest committed version — the soak's proof that degraded
service, not corrupted state, was the worst that happened.

This module imports the live runtime, so :mod:`repro.chaos` does not
import it eagerly; reach it as ``repro.chaos.soak``.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..autonomy.controller import WeightAutopilot
from ..autonomy.policy import AutopilotPolicy
from ..core.votes import Representative, SuiteConfiguration
from ..errors import ReproError
from ..obs.flight import FlightHistory, FlightRecorder
from ..sim.rng import RandomStreams
from .health import HealthTracker
from .invariants import InvariantReport, OpRecord, check_history
from .nemesis import (NemesisScript, markov_nemesis, random_nemesis,
                      run_live_nemesis, schedule_on_sim)
from .policy import ChaosPolicy

#: Payload installed at version 1.
INITIAL_TAG = "soak-init"


@dataclass
class SoakConfig:
    """Everything a soak run needs, fully determined by ``seed``."""

    reps: int = 5
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

    # Nemesis (crash / restart / partition schedule).
    nemesis_kind: str = "random"         # "random" | "markov" | "none"
    horizon: Optional[float] = None      # ms; default derived from ops
    mean_interval: float = 1_000.0
    max_down: Optional[int] = None       # default (reps - 1) // 2
    markov_availability: float = 0.9
    markov_mttr: float = 1_500.0

    # Vote autopilot: step the controller from the op driver every
    # ``autopilot_interval_ops`` operations (sequential with the ops,
    # so each reassignment lands at a well-defined point of the
    # history and the invariant checker covers it exactly).
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

    # Read fast path: on by default (the production default); a soak
    # may turn it off to exercise the legacy two-trip path, or set
    # ``read_max_bytes`` below the payload size so every piggyback is
    # truncated and the fallback runs under chaos.
    read_fastpath: bool = True
    read_max_bytes: Optional[int] = None   # None → the suite default

    # Client aggressiveness.  Short timeouts keep a loopback soak brisk;
    # generous attempt counts let operations ride out crash windows.
    call_timeout: float = 300.0
    inquiry_timeout: float = 250.0
    data_timeout: float = 500.0
    transport_attempts: int = 2
    max_attempts: int = 8
    retry_backoff: float = 40.0

    # Server-side lock discipline, tightened so locks stranded by a
    # killed client resolve well inside one op-retry ladder.
    lock_timeout: float = 400.0
    idle_abort_after: float = 2_000.0

    def __post_init__(self) -> None:
        if self.reps < 3:
            raise ValueError("need at least 3 representatives")
        if self.ops < 1:
            raise ValueError("need at least one operation")
        if self.nemesis_kind not in ("random", "markov", "none"):
            raise ValueError(
                f"unknown nemesis kind {self.nemesis_kind!r}")
        if self.degrade_server is not None \
                and self.degrade_server not in self.server_names:
            raise ValueError(
                f"degrade server {self.degrade_server!r} not in the "
                "cluster")

    @property
    def server_names(self) -> List[str]:
        return [f"s{i + 1}" for i in range(self.reps)]

    @property
    def majority(self) -> int:
        return self.reps // 2 + 1

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

    def chaos_policy(self, streams: RandomStreams) -> ChaosPolicy:
        return ChaosPolicy(streams=streams,
                           drop_probability=self.loss,
                           delay_probability=self.delay_probability,
                           delay_min=self.delay_min,
                           delay_max=self.delay_max,
                           duplicate_probability=self.duplicate_probability)

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

    def degrade_heal_index(self) -> Optional[int]:
        if self.degrade_server is None:
            return None
        if self.degrade_heal_at is not None:
            return self.degrade_heal_at
        return self.ops // 2

    def autopilot_policy(self) -> AutopilotPolicy:
        """Soak tuning: the survivability floor is a full majority of
        voting representatives, so even repeated demotions can never
        leave the suite unable to lose one more server."""
        return AutopilotPolicy(min_voting_reps=self.majority)


@dataclass
class SoakReport:
    """Everything a soak run produced."""

    runtime: str                         # "sim" | "live"
    config: SoakConfig
    report: InvariantReport
    history: List[OpRecord]
    chaos_stats: Dict[str, int]
    nemesis_steps: int
    breakers: Dict[str, Any] = field(default_factory=dict)
    elapsed_ms: float = 0.0
    #: :meth:`WeightAutopilot.state` at the end of the run, when the
    #: autopilot was enabled.
    autopilot: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def verdict(self) -> str:
        """Runtime-independent outcome, for sim/live comparison."""
        return "OK" if self.report.ok else "VIOLATIONS:" + ",".join(
            sorted({violation.rule
                    for violation in self.report.violations}))

    def summary(self) -> str:
        chaos = ", ".join(f"{name}={count}" for name, count
                          in sorted(self.chaos_stats.items()))
        autopilot = ""
        if self.autopilot is not None:
            autopilot = (
                f" | autopilot: {self.autopilot['applied']} applied, "
                f"{self.autopilot['rejected_gate']} gate-rejected, "
                f"{'at' if self.autopilot['at_seed_weights'] else 'OFF'}"
                " seed weights")
        return (f"[{self.runtime}] seed={self.config.seed} "
                f"{self.report.summary()} | nemesis steps: "
                f"{self.nemesis_steps} | {chaos} | "
                f"{self.elapsed_ms:.0f}ms{autopilot}")


# ---------------------------------------------------------------------------
# The shared op driver (one generator, both runtimes)
# ---------------------------------------------------------------------------

def _drive_ops(suite, clock, config: SoakConfig, rng,
               autopilot: Optional[WeightAutopilot] = None,
               policy: Optional[ChaosPolicy] = None,
               history: Optional[List[OpRecord]] = None,
               ) -> Generator[Any, Any, List[OpRecord]]:
    """Issue the seeded op mix sequentially; record every outcome.

    With an ``autopilot``, the controller is stepped every
    ``autopilot_interval_ops`` operations *between* ops — sequential
    with the workload, so every reassignment lands at a well-defined
    point of the history and is covered by the invariant checker (a
    reconfiguration is a committed write; see
    :func:`_autopilot_step`).  With a ``policy`` and a configured
    ``degrade_server``, the planted slowdown is injected before the
    first op and healed at ``degrade_heal_index()``.

    ``history`` lets the runner supply the record list — a
    :class:`~repro.obs.flight.FlightHistory` journals every append as
    an ``op`` event without the driver knowing.
    """
    if history is None:
        history = []
    heal_at = config.degrade_heal_index()
    for index in range(config.ops):
        if policy is not None and config.degrade_server is not None:
            if index == 0:
                policy.slow_host(config.degrade_server,
                                 config.degrade_delay_ms)
            elif index == heal_at:
                policy.clear_slow_hosts()
        if rng.random() < config.read_fraction:
            yield from _one_read(suite, clock, index, history)
        else:
            yield from _one_write(suite, clock, index, history,
                                  tag=f"soak-{index}")
        if autopilot is not None and config.autopilot_interval_ops > 0 \
                and (index + 1) % config.autopilot_interval_ops == 0:
            yield from _autopilot_step(autopilot, clock, index, history)
    return history


def _latest_commit(history: List[OpRecord]) -> "tuple[int, str]":
    """The checker's latest committed ``(version, tag)`` so far.

    The driver is sequential and failed writes are provably
    uncommitted, so the highest committed write version *is* the
    current version a reconfiguration bumps from.
    """
    version, tag = 1, INITIAL_TAG
    for record in history:
        if record.kind == "write" and record.ok \
                and record.version is not None \
                and record.version > version:
            version, tag = record.version, record.tag
    return version, tag


def _autopilot_step(autopilot: WeightAutopilot, clock, index: int,
                    history: List[OpRecord],
                    ) -> Generator[Any, Any, None]:
    """One control round, with the reconfiguration made visible to the
    invariant checker: an applied reassignment re-stages the current
    payload at ``version = current + 1``, i.e. it *is* a committed
    write, so a synthetic committed-write record is appended (the same
    bookkeeping as the cluster soak's mid-run join)."""
    record = yield from autopilot.step()
    if record is not None and record.applied:
        version, tag = _latest_commit(history)
        now = clock()
        history.append(OpRecord(
            index=index, kind="write", ok=True, started=now,
            finished=now, version=version + 1, tag=tag))


def _drive_autopilot_restore(suite, autopilot: WeightAutopilot, clock,
                             config: SoakConfig,
                             history: List[OpRecord],
                             ) -> Generator[Any, Any, None]:
    """Post-nemesis restoration rounds, appending to ``history``.

    The healed cluster no longer fails foreground traffic, but the
    demoted representative only proves itself through fresh evidence —
    each round issues one read (whose weak-representative polling
    probes the breaker and drains staleness), then steps the
    controller.  Stops early once the vote vector is back at seed."""
    index = history[-1].index + 1 if history else 0
    for round_ in range(config.autopilot_restore_rounds):
        if autopilot.at_seed_weights():
            return
        yield from _one_read(suite, clock, index + round_, history)
        yield from _autopilot_step(autopilot, clock, index + round_,
                                   history)
        yield suite.sim.timeout(autopilot.policy.interval_ms)


def _final_reads(suite, clock, config: SoakConfig, start_index: int,
                 history: Optional[List[OpRecord]] = None,
                 ) -> Generator[Any, Any, List[OpRecord]]:
    """Convergence reads on the healed, chaos-free cluster.

    Appends into ``history`` when the caller passes its run-long
    record list (so a journaling history captures these too); returns
    the list either way.
    """
    if history is None:
        history = []
    for offset in range(config.final_reads):
        yield from _one_read(suite, clock, start_index + offset, history)
    return history


def _one_read(suite, clock, index: int,
              history: List[OpRecord]) -> Generator[Any, Any, None]:
    started = clock()
    try:
        result = yield from suite.read()
    except ReproError as exc:
        history.append(OpRecord(
            index=index, kind="read", ok=False, started=started,
            finished=clock(), error=type(exc).__name__))
        return
    history.append(OpRecord(
        index=index, kind="read", ok=True, started=started,
        finished=clock(), version=result.version,
        tag=result.data.decode("utf-8", errors="replace"),
        served_by=result.served_by, quorum=list(result.quorum),
        observed=dict(result.observed), attempts=result.attempts))


def _one_write(suite, clock, index: int, history: List[OpRecord],
               tag: str) -> Generator[Any, Any, None]:
    started = clock()
    try:
        result = yield from suite.write(tag.encode("utf-8"))
    except ReproError as exc:
        history.append(OpRecord(
            index=index, kind="write", ok=False, started=started,
            finished=clock(), tag=tag, error=type(exc).__name__))
        return
    history.append(OpRecord(
        index=index, kind="write", ok=True, started=started,
        finished=clock(), version=result.version, tag=tag,
        quorum=list(result.quorum), observed=dict(result.observed),
        attempts=result.attempts))


def _suite_kwargs(config: SoakConfig) -> Dict[str, Any]:
    kwargs = {"inquiry_timeout": config.inquiry_timeout,
              "data_timeout": config.data_timeout,
              "max_attempts": config.max_attempts,
              "retry_backoff": config.retry_backoff,
              "read_fastpath": config.read_fastpath}
    if config.read_max_bytes is not None:
        kwargs["read_max_bytes"] = config.read_max_bytes
    return kwargs


# ---------------------------------------------------------------------------
# Runtime-specific runners
# ---------------------------------------------------------------------------

def _flight_blocking_snapshot(metrics: Any) -> Dict[str, float]:
    """The ``quorum.blocking.*`` plane as plain data, for the journal.

    Recorded as the journal's final ``metrics`` event so ``repro
    replay --verify`` can cross-check the attribution it re-derives
    from ``quorum`` events against what the live counters actually
    said — any disagreement means one plane lied.
    """
    snapshot: Dict[str, float] = {}
    for name, value in metrics.counters().items():
        if name.startswith("quorum.blocking."):
            snapshot[name] = float(value)
    for name, gauge in sorted(metrics._gauges.items()):
        if name.startswith("quorum.blocking."):
            snapshot[name] = float(gauge.value)
    return snapshot


def run_sim_soak(config: SoakConfig,
                 flight_dir: Optional[str] = None) -> SoakReport:
    """The soak on a simulated testbed, in virtual time.

    With ``flight_dir``, every protocol decision is journaled to a
    :class:`~repro.obs.flight.FlightRecorder` there.  The journal is
    deterministic: same config + seed ⇒ byte-identical segments,
    which is what ``repro replay --re-execute`` relies on.
    """
    from ..testbed import Testbed

    streams = RandomStreams(seed=config.seed)
    policy = config.chaos_policy(streams)
    policy.enabled = False               # clean install first
    script = config.nemesis(streams)

    bed = Testbed(config.server_names, seed=config.seed,
                  call_timeout=config.call_timeout,
                  lock_timeout=config.lock_timeout,
                  idle_abort_after=config.idle_abort_after, obs=True)
    bed.network.chaos = policy
    client = bed.clients["client"]
    client.manager.transport_attempts = config.transport_attempts
    health = HealthTracker(clock=lambda: bed.sim.now,
                           metrics=bed.metrics)
    client.endpoint.health = health

    recorder = None
    if flight_dir is not None:
        recorder = FlightRecorder(flight_dir,
                                  clock=lambda: bed.sim.now)
        recorder.emit("meta", runtime="sim", seed=config.seed,
                      initial_tag=INITIAL_TAG, config=asdict(config))
        bed.flight = recorder            # before install: suites inherit
        policy.flight = recorder
        health.flight = recorder

    suite = bed.install(config.suite_configuration(),
                        INITIAL_TAG.encode("utf-8"),
                        health=health, **_suite_kwargs(config))
    started = bed.sim.now
    autopilot = None
    if config.autopilot:
        autopilot = WeightAutopilot(suite, health=health,
                                    policy=config.autopilot_policy())

    policy.enabled = True
    adapter = schedule_on_sim(bed, script, policy, disable_at_end=False)
    ops_rng = streams.stream("soak:ops")
    history: List[OpRecord] = FlightHistory(recorder) \
        if recorder is not None else []
    bed.run(_drive_ops(suite, lambda: bed.sim.now, config,
                       ops_rng, autopilot=autopilot,
                       policy=policy, history=history))

    # Let the nemesis script finish (heal + restart-all), then verify
    # convergence on the healed cluster without message-level faults.
    remaining = script.horizon - bed.sim.now
    bed.settle(grace=max(1_000.0, remaining + 1_000.0))
    policy.enabled = False
    if autopilot is not None:
        bed.run(_drive_autopilot_restore(suite, autopilot,
                                         lambda: bed.sim.now, config,
                                         history))
    bed.run(_final_reads(suite, lambda: bed.sim.now, config,
                         start_index=history[-1].index + 1
                         if history else config.ops,
                         history=history))

    if recorder is not None:
        recorder.emit("metrics",
                      blocking=_flight_blocking_snapshot(bed.metrics),
                      chaos=policy.stats())
        recorder.close()

    return SoakReport(
        runtime="sim", config=config,
        report=check_history(history, initial_tag=INITIAL_TAG),
        history=history, chaos_stats=policy.stats(),
        nemesis_steps=len(adapter.applied),
        breakers=health.snapshot(),
        elapsed_ms=bed.sim.now - started,
        autopilot=autopilot.state() if autopilot is not None else None)


#: Default size cap for soak trace exports (bytes per file); keeps a
#: long soak's JSONL artifact bounded without the CLIs having to pick.
DEFAULT_TRACE_MAX_BYTES = 8 << 20


async def run_live_soak(config: SoakConfig,
                        data_root: Optional[str] = None,
                        trace_path: Optional[str] = None,
                        flight_dir: Optional[str] = None) -> SoakReport:
    """The soak on a live loopback cluster, over real sockets.

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

    recorder = None
    if flight_dir is not None:
        # Clock is rebound to the live kernel once the cluster is up;
        # only the meta record (emitted below) sees the placeholder.
        recorder = FlightRecorder(flight_dir, clock=lambda: 0.0)
        recorder.emit("meta", runtime="live", seed=config.seed,
                      initial_tag=INITIAL_TAG, config=asdict(config))
        policy.flight = recorder

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
        suite = await cluster.install(config.suite_configuration(),
                                      INITIAL_TAG.encode("utf-8"),
                                      **_suite_kwargs(config))
        started = kernel.now
        autopilot = None
        if config.autopilot:
            autopilot = WeightAutopilot(
                suite, health=cluster.client.health,
                policy=config.autopilot_policy())

        policy.enabled = True
        nemesis_task = asyncio.ensure_future(
            run_live_nemesis(cluster, script, policy,
                             disable_at_end=False))
        ops_rng = streams.stream("soak:ops")
        history: List[OpRecord] = FlightHistory(recorder) \
            if recorder is not None else []
        try:
            await cluster.run(
                _drive_ops(suite, lambda: kernel.now, config, ops_rng,
                           autopilot=autopilot, policy=policy,
                           history=history))
        finally:
            # The op run never outlives this scope with servers down:
            # the script's tail heals and restarts everything.
            adapter = await nemesis_task
        policy.enabled = False
        if autopilot is not None:
            await cluster.run(
                _drive_autopilot_restore(suite, autopilot,
                                         lambda: kernel.now, config,
                                         history))
        await cluster.run(
            _final_reads(suite, lambda: kernel.now, config,
                         start_index=history[-1].index + 1
                         if history else config.ops,
                         history=history))
        elapsed = kernel.now - started
        breakers = cluster.client.health.snapshot()
        if recorder is not None:
            recorder.emit("metrics", blocking=_flight_blocking_snapshot(
                cluster.client.metrics), chaos=policy.stats())
            recorder.close()
        if trace_path is not None:
            cluster.export_trace_jsonl(
                trace_path, max_bytes=DEFAULT_TRACE_MAX_BYTES)

    return SoakReport(
        runtime="live", config=config,
        report=check_history(history, initial_tag=INITIAL_TAG),
        history=history, chaos_stats=policy.stats(),
        nemesis_steps=len(adapter.applied),
        breakers=breakers, elapsed_ms=elapsed,
        autopilot=autopilot.state() if autopilot is not None else None)
